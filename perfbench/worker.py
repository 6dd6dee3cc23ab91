"""Set up one workload and measure it in this process.

Run by ``run.py``; prints one JSON object as its last stdout line.

Set-up is timed from the start of this process: import qcrb, generate the
workload's inputs, run the first op of a pass once (the warm-up op).  With
``--setup-only`` the worker stops there.

The timed phase runs passes over the workload's ops in-process, one op
after another (a closed loop with one caller), until ``--seconds`` have
passed.  With ``--trace 1`` the worker instead runs an untraced phase and
a traced phase of ``--seconds / 2`` each, then times a few ops as ``qcrb``
subprocesses to measure the per-process overhead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: How a ``qcrb`` console-script invocation starts: import the CLI, call main.
LAUNCH = "import sys; from qcrb.cli import main; sys.exit(main())"

#: Per workload: repeats of each op whose subprocess time is compared with
#: its in-process time (``cli.process_overhead_ms``): the ``qcrb`` command
#: script in ``small_models``, the first op in ``large_models``.
PROBE_REPEATS = {"small_models": 2, "large_models": 3}


def _import_qcrb(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qcrb.cli

    if not os.path.abspath(qcrb.__file__).startswith(src + os.sep):
        raise SystemExit(f"qcrb imported from {qcrb.__file__}, not from {src}")
    return qcrb.cli


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if that is its BLAS."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
    }


class Runner:
    """Runs ops in-process through ``qcrb.cli.main`` or as subprocesses."""

    def __init__(self, cli_mod, root: str):
        self.cli = cli_mod
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.cwd = root

    def inprocess(self, op, trace=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if trace is None:
                code = self.cli.main(list(op.argv))
            else:
                code = trace.run_op(self.cli.main, list(op.argv))
            dt = time.perf_counter() - t0
        return code, out.getvalue(), dt

    def subprocess(self, op, trace=None):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", LAUNCH, *op.argv], capture_output=True,
                              text=True, env=self.env, cwd=self.cwd, timeout=120)
        dt = time.perf_counter() - t0
        return proc.returncode, proc.stdout, dt


def run_phase(ops, run, budget: float, trace=None):
    """Whole passes over ``ops`` until ``budget`` seconds have passed.

    Returns the (op index, exit code, stdout, seconds) records and the
    duration of each pass.
    """
    records, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for index, op in enumerate(ops):
            code, out, dt = run(op, trace)
            records.append((index, code, out, dt))
        passes.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= budget:
            return records, passes


def steady_latencies(records, n_ops: int) -> list:
    """Per op, the shortest of its latencies over the passes.

    On a shared host the CPU can run at a slower level for seconds at a
    time, so a median over passes follows how much of a run fell into slow
    phases.  As with ``timeit``, the shortest repeat is the one least
    disturbed by other work on the host.
    """
    by_op = [[] for _ in range(n_ops)]
    for index, _, _, dt in records:
        by_op[index].append(dt)
    return [min(v) for v in by_op]


def op_rate(ok: list, steady: list) -> float:
    """Ops that passed every check per second of a pass at steady latencies."""
    return sum(ok) / len(ok) * len(steady) / sum(steady)


def evaluate(ops, records, reference) -> dict:
    """Apply the output checks to every record of a phase."""
    failures, ok, violating_ops, violations = [], [], set(), 0
    for index, code, out, _ in records:
        reason, violated = checks.check(ops[index], code, out, reference)
        ok.append(not reason)
        if reason:
            failures.append(f"{ops[index].key}: {reason}")
        if violated:
            violations += 1
            violating_ops.add(index)
    return {"attempted": len(records), "failed": len(failures), "failures": failures, "ok": ok,
            "violations": violations, "violating_ops": len(violating_ops)}


def latency_summary(records, steady: list) -> dict:
    lat = sorted(dt for _, _, _, dt in records)
    n = len(lat)
    out = {"n": n, "p50_ms": 1000 * statistics.median(steady), "ops": len(steady)}
    # highest percentile with at least ten samples beyond it; reported from p75 up
    if n >= 40:
        out["tail_ms"] = 1000 * lat[n - 11]
        out["tail_percentile"] = round(100 * (n - 10) / n, 1)
    return out


def _source_hash(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "qcrb", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def repeat_check(keys, trace, path: str, source: str) -> list:
    """Exact counts must repeat: across passes of this run, and across runs
    of the same workload and seed on the same source (kept in ``path``)."""
    problems = []
    by_key = {}
    for op_id, sig in sorted(trace.op_signatures().items()):
        key = keys[op_id]
        sig = json.loads(json.dumps(sig))
        if by_key.setdefault(key, sig) != sig:
            problems.append(f"{key}: counts differ between passes")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        if previous.get("source") == source:
            for key, sig in by_key.items():
                if key in previous["signatures"] and previous["signatures"][key] != sig:
                    problems.append(f"{key}: counts differ from the previous run of this seed")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"source": source, "signatures": by_key}, fh)
    return problems


def layer_metrics(trace) -> tuple[dict, dict]:
    """(per-layer metrics by name, full per-function table)."""
    table = trace.layers()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0}
    n_ops = table.get(tracer.OP, empty)["calls"]
    op_time = table.get(tracer.OP, empty)["total_s"]
    per_op = max(n_ops, 1)

    def row(name):
        return table.get(name, empty)

    metrics = {}
    for mod in ("cli", "model", "sld", "bounds", "holevo", "linalg"):
        metrics[f"{mod}.self_s_per_op"] = sum(
            r["self_s"] for n, r in table.items() if n.startswith(mod + ".")) / per_op
    for name in tracer.SELF_TIMED:
        metrics[f"{name}.self_s_per_op"] = row(name)["self_s"] / per_op
    for name in tracer.CALL_COUNTED + tuple(f"numpy.linalg.{n}" for n in tracer.COUNTED):
        metrics[f"{name}.calls_per_op"] = row(name)["calls"] / per_op
    sdp_runs = trace.sdp_results()
    iterations = sum(it or 0 for it, _ in sdp_runs)
    solve_self = row("sdp.solve_lmi")["self_s"]
    metrics["sdp.solve_lmi.iterations_per_op"] = iterations / per_op
    metrics["sdp.solve_lmi.s_per_iteration"] = solve_self / max(iterations, 1)
    metrics["sdp.solve_lmi.self_share"] = solve_self / op_time if op_time else 0.0
    metrics["sdp.solve_lmi.not_optimal"] = sum(1 for _, status in sdp_runs if status != "Optimal")
    metrics["holevo.verify_solution.failed"] = row("holevo.verify_solution")["raised"]
    full = {name: dict(r, calls_per_op=r["calls"] / per_op, total_s_per_op=r["total_s"] / per_op,
                       self_s_per_op=r["self_s"] / per_op) for name, r in sorted(table.items())}
    return metrics, full


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(_import_qcrb(args.root), args.root)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT_DIR)
    try:
        ops = inputs.workload_ops(args.workload, args.seed, workdir)
        warm = run_phase(ops[:1], runner.inprocess, 0.0)[0]
        result = {"setup_s": time.perf_counter() - T_START, "env": environment(args),
                  "ops_per_pass": len(ops)}
        if args.setup_only:
            result.update(evaluate(ops, warm, reference))
        elif args.trace:
            result.update(traced_run(args, ops, runner, reference))
        else:
            records, passes = run_phase(ops, runner.inprocess, args.seconds)
            ev = evaluate(ops, records, reference)
            steady = steady_latencies(records, len(ops))
            result.update(ev, passes=len(passes), ops_per_s=op_rate(ev["ok"], steady),
                          latency=latency_summary(records, steady),
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.pop("ok", None)
    print(json.dumps(result))
    return 0


def traced_run(args, ops, runner, reference) -> dict:
    """Untraced and traced in-process phases, then the subprocess probe."""
    plain, _ = run_phase(ops, runner.inprocess, args.seconds / 2)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced, traced_passes = run_phase(ops, runner.inprocess, args.seconds / 2, trace)
    finally:
        trace.uninstall()
    keys = [ops[index].key for index, *_ in traced]

    indices = [i for i, op in enumerate(ops) if op.in_script] or [0]
    overheads, probe = [], []
    for index in indices:
        sub = []
        for _ in range(PROBE_REPEATS[args.workload]):
            code, out, dt = runner.subprocess(ops[index])
            probe.append((index, code, out, dt))
            sub.append(dt)
        inproc = [dt for i, _, _, dt in plain if i == index]
        overheads.append(statistics.median(sub) - statistics.median(inproc))

    ev_plain = evaluate(ops, plain, reference)
    ev_traced = evaluate(ops, traced, reference)
    tag = f"{args.workload}-seed{args.seed}"
    problems = repeat_check(keys, trace, os.path.join(OUT_DIR, f"counts-{tag}.json"),
                            _source_hash(args.root))
    metrics, table = layer_metrics(trace)
    plain_steady = steady_latencies(plain, len(ops))
    plain_rate = op_rate(ev_plain["ok"], plain_steady)
    metrics["trace.ops_per_s"] = op_rate(ev_traced["ok"], steady_latencies(traced, len(ops)))
    metrics["trace.overhead"] = 1.0 - metrics["trace.ops_per_s"] / plain_rate if plain_rate else 0.0
    metrics["trace.absent_names"] = len(trace.absent())
    metrics["cli.process_overhead_ms"] = 1000 * statistics.median(overheads)
    metrics["report.ordering_violations"] = ev_traced["violating_ops"]
    with open(os.path.join(OUT_DIR, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(trace.dump(), op_keys=keys), fh)
    return dict(evaluate(ops, plain + traced + probe, reference), passes=len(traced_passes),
                layers=metrics, table=table, absent=trace.absent(), repeat_problems=problems,
                ops_per_s=plain_rate, latency=latency_summary(plain, plain_steady))


if __name__ == "__main__":
    sys.exit(main())
