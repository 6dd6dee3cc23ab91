"""Benchmark: checked c_gs / c_h / c_d reports per second from qcrb.

Run from the repository root:

    python3 perfbench/run.py --workload small_models --seed 1 --seconds 55 --trace 0

Each op carries one model (or one CLI command) to a checked report, the
way a user scripting a batch or a sweep waits on each result: a closed
loop with one caller in one process.  Inputs are generated from
``--seed``; qcrb sees only the generated files and its argv.  BLAS
threading is left at its default and recorded.

Workloads, and why each was chosen:

small_models
    In-process ``qcrb.cli.main(["bounds", file, "--format", "json"])`` on a
    seeded mix of d ≤ 4 models and the closed-form fixtures, then a fixed
    script of ``qcrb`` commands run the same way: fixture emission, bounds
    in text / JSON / with x_opt, two sweeps, a POVM audit, Gaussian models
    with and without a measurement CM, a malformed file (exit 1) and an
    infeasible model (exit 2).  Only about half of a model op is the SDP;
    the rest (validation, SLDs, closed forms, problem assembly,
    verification, JSON) is what analysing a model once or skipping the SDP
    by an exact shortcut would save.  The script is the only place the
    ``povm`` and ``gaussian`` modules run; a traced run also times its
    commands as fresh processes (``cli.process_overhead_ms``).
large_models
    The same entry point on p = q = 3 models at d = 8, 10 and 12.  The
    dense interior-point solve is nearly all of each op and sets both time
    and peak memory; analysis-side savings should not show here.

A run makes passes over its ops until ``--seconds`` have passed.  An
op's steady latency is the shortest of its latencies over the passes:
``ops_per_s`` is the ops of a pass that passed every check divided by
the sum of their steady latencies, and ``latency_p50_ms`` the median
steady latency over the ops of a pass.  A shared host can run the CPU at
a slower level for seconds or minutes at a time; a median over passes
would follow how much of a run fell into such phases.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  Lines
before it give every metric with its unit and sample count, the error
rate, the exact-ordering violations and the environment.  A traced run
also writes its spans to ``perfbench/out/spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_models", "large_models")

#: Fresh processes whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 5
#: Wall-clock limit for the whole run.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker(args, extra: list, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcrb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qcrb", "cli.py")):
        print(f"error: no qcrb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = _worker(args, [], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_values = [s["setup_s"] for s in setups] + [res["setup_s"]]
    attempted = res["attempted"] + sum(s["attempted"] for s in setups)
    failures = res["failures"] + [f for s in setups for f in s["failures"]]
    problems = res.get("repeat_problems", [])

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{res['ops_per_pass']} ops per pass")
    print("env " + json.dumps(res["env"], sort_keys=True))
    lat = res["latency"]
    values = {
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": lat["p50_ms"],
        "peak_rss_mb": res.get("peak_rss_mb"),
        "setup_s": statistics.median(setup_values),
    }
    phase = "; untraced in-process phase" if args.trace else ""
    notes = {
        "ops_per_s": f"{res['ops_per_pass']} ops at their steady latency, "
                     f"from {res['passes']} passes{phase}",
        "latency_p50_ms": f"median over {lat['ops']} ops of each op's steady latency, "
                          f"n={lat['n']}{phase}",
        "setup_s": f"median of {len(setup_values)}: " + ", ".join(f"{v:.4f}" for v in setup_values),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["trace.ops_per_s"] = "1/s"
    for name in ("ops_per_s", "latency_p50_ms", "peak_rss_mb", "setup_s"):
        if values[name] is not None:
            _show(name, values[name], units.get(name, ""), notes.get(name, ""))
    if "tail_ms" in lat:
        _show("latency_tail_ms", lat["tail_ms"], "ms", f"p{lat['tail_percentile']}, n={lat['n']}")
    else:
        _show("latency_tail_ms", "omitted", "", f"n={lat['n']} is too few for a tail percentile")
    _show("error_rate", len(failures) / attempted, "fraction", f"{len(failures)} of {attempted} ops failed")
    _show("report.ordering_violations", res["violating_ops"], "count",
          f"of {res['ops_per_pass']} ops in a pass; {res['violations']} of {res['attempted']} ops run")
    for line in failures[:10] + problems[:10]:
        print("FAILED " + line)

    if args.trace:
        layers = res["layers"]
        print(f"traced phase: {res['passes']} passes of {res['ops_per_pass']} ops; "
              f"absent names: {', '.join(res['absent']) or 'none'}")
        print(f"{'function':34s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} "
              f"{'calls/op':>9s} {'total_s/op':>11s} {'self_s/op':>11s}")
        for name, row in res["table"].items():
            print(f"{name:34s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f} "
                  f"{row['calls_per_op']:9.3f} {row['total_s_per_op']:11.6f} {row['self_s_per_op']:11.6f}")
        for name in sorted(layers):
            _show(name, layers[name], units.get(name, ""))
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
