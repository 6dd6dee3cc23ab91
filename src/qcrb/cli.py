"""Command-line front end.

Subcommands: ``bounds``, ``gaussian``, ``check-povm``, ``sweep``,
``fixtures``.  Reports go to stdout (byte-deterministic for identical
inputs and flags), diagnostics and timings to stderr.

Exit codes: 0 success; 1 unreadable or invalid input file, or a usage
error (an unknown command, a missing argument, a malformed or
out-of-range flag value); 2 semantic rejection (infeasible model,
unphysical covariance matrix, locally biased POVM); 3 solver failure.
``main`` maps every error to its code through one table,
:data:`FAILURES`, and returns it; every error ends in one stderr line.

The argument parser, :data:`PARSER`, is built once per process, at
import.  ``main`` looks the subcommand's ``cmd_*`` function up in this
module when it is called, so a replacement of ``cmd_bounds`` and the like
(a wrapper, a test double) is the function that runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from . import gaussian as gaussian_mod
from . import holevo, linalg, povm as povm_mod, sdp
from .exceptions import InfeasibleModel, ModelError, NotLocallyUnbiased, UnphysicalCovariance, VerificationFailed
from .model import FIXTURES, fixture, load_model, model_to_dict, naming, save_model, validate
from .sld import analyze, decide_qfim

EXIT_OK = 0
EXIT_FILE = 1
EXIT_REJECTED = 2
EXIT_SOLVER = 3

#: The smallest relative duality gap ``--tol`` may ask for: roundoff sets the floor.
_EPS = float(np.finfo(float).eps)

#: Exit code and stderr prefix per error class; the first matching row
#: wins, so the more specific classes come first.  ``ModelError`` is a
#: ``ValueError``: validation failures exit like unreadable files.
FAILURES = (
    (InfeasibleModel, EXIT_REJECTED, "infeasible model"),
    (NotLocallyUnbiased, EXIT_REJECTED, "not locally unbiased"),
    (UnphysicalCovariance, EXIT_REJECTED, "unphysical covariance matrix"),
    (VerificationFailed, EXIT_SOLVER, "verification failed"),
    (OSError, EXIT_FILE, "error"),
    (ValueError, EXIT_FILE, "error"),
)

def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=1) + "\n")


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _check_solver_flags(args) -> None:
    """Reject a ``--tol``, ``--max-iter`` or ``--rank-tol`` outside the range
    where it means anything, naming the flag; a command without the flag skips its check."""
    if hasattr(args, "tol") and not (np.isfinite(args.tol) and args.tol >= _EPS):
        raise ValueError(f"--tol must be a finite number >= {_EPS!r} (machine epsilon), got {args.tol!r}")
    if getattr(args, "max_iter", 0) < 0:
        raise ValueError(f"--max-iter must be >= 0, got {args.max_iter}")
    if hasattr(args, "rank_tol") and not 0 <= args.rank_tol < 1:
        raise ValueError(f"--rank-tol must be a finite number in [0, 1), got {args.rank_tol!r}")


def _failed_solve(sol) -> str:
    """How stderr describes a solve that did not reach ``Optimal``."""
    status = f"{sol.status} ({sol.reason})" if sol.reason else sol.status
    return f"status {status} after {sol.iterations} iterations (gap {sol.duality_gap:.3e})"


def _tolerances(args) -> dict:
    return {"sdp_gap": args.tol, "max_iter": args.max_iter, "rank_tol": args.rank_tol}


def _bound_pipeline(analysis, args):
    """closed forms -> c_h -> verification, on a model's analysis.

    Returns (report dict, solution, timings, exit code); the timings hold
    ``closed_forms_s``, ``sdp_s`` and, when the solve reached verification,
    ``verify_s``.
    """
    model = analysis.model
    t0 = time.perf_counter()
    closed = bounds_mod.sandwich(analysis)
    t1 = time.perf_counter()
    sol = holevo.solve(analysis, closed, tol=args.tol, max_iter=args.max_iter)
    t2 = time.perf_counter()
    report = {
        "model_label": model.label,
        "feasible": True,
        "c_gs": closed.c_gs,
        "c_h": sol.c_h,
        "c_d": closed.c_d,
        "two_c_gs": 2 * closed.c_gs,
        "duality_gap": sol.duality_gap,
        "solver_status": sol.status,
        "iterations": sol.iterations,
        "c_h_method": sol.method,
        "tolerances": _tolerances(args),
    }
    timings = {"closed_forms_s": t1 - t0, "sdp_s": t2 - t1}
    if sol.status != sdp.OPTIMAL:
        return report, sol, timings, EXIT_SOLVER
    verification = holevo.verify_solution(analysis, sol, closed)
    timings["verify_s"] = time.perf_counter() - t2
    report["verified"] = True
    report["unbias_residual"] = verification.unbias_residual
    if getattr(args, "include_x_opt", False):
        report["x_opt_coefficients"] = linalg.gell_mann_coefficients(sol.x_opt).tolist()
    return report, sol, timings, EXIT_OK


def _emit_bound_report(report: dict, timings: dict, args) -> None:
    if getattr(args, "timings", False):
        report = dict(report)
        report["timings"] = timings
    else:
        _diag("timings: " + ", ".join(f"{k}={v:.3f}" for k, v in timings.items()))
    if args.format == "json":
        _print_json(report)
        return
    lines = [f"model: {report['model_label'] or '(unlabeled)'}"]
    lines.append(
        "c_gs <= c_h <= c_d <= 2*c_gs : "
        f"{_fmt(report['c_gs'])} <= {_fmt(report['c_h'])} <= "
        f"{_fmt(report['c_d'])} <= {_fmt(report['two_c_gs'])}"
    )
    method = "" if report["c_h_method"] == holevo.SDP else f" (c_h_method {report['c_h_method']})"
    lines.append(f"solver: {report['solver_status']} after {report['iterations']} iterations{method}, "
                 f"relative gap {_fmt(report['duality_gap'])}")
    if "unbias_residual" in report:
        lines.append(f"verification: unbiasedness residual {_fmt(report['unbias_residual'])}")
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_bounds(args) -> int:
    report, sol, timings, code = _bound_pipeline(analyze(load_model(args.model), args.rank_tol), args)
    if code == EXIT_SOLVER:
        _diag(f"solver failed: {_failed_solve(sol)}; best iterate reported")
    _emit_bound_report(report, timings, args)
    return code


def cmd_gaussian(args) -> int:
    model = gaussian_mod.load_gaussian_model(args.model)
    if args.measurement_cm:
        meas = gaussian_mod.load_measurement(args.measurement_cm, model.modes)
    with naming(args.model):
        f_half, qfim, deviation = gaussian_mod.half_qfim_check(model)
    with naming(args.measurement_cm):  # only the measurement's F is left to fail
        fim = gaussian_mod.gaussian_fim(model, meas) if args.measurement_cm else f_half
    dbeta = model.dbeta_or_default()
    weight = model.weight_or_default()
    _, qfim_pinv = decide_qfim(linalg.symmetric_eigh(qfim, "J"), dbeta, args.rank_tol)  # exit 2, as in bounds
    chained = float(np.trace(weight @ dbeta.T @ linalg.pseudoinverse(f_half, args.rank_tol) @ dbeta))
    two_c_gs = 2.0 * float(np.trace(weight @ dbeta.T @ qfim_pinv @ dbeta))
    report = {
        "model_label": model.label,
        "modes": model.modes,
        "qfim": [[float(x) for x in row] for row in qfim],
        "fim": [[float(x) for x in row] for row in fim],
        "half_qfim_deviation": deviation,
        "chained_scalar_bound": chained,
        "two_c_gs": two_c_gs,
        "tolerances": {"rank_tol": args.rank_tol},
    }
    if args.format == "json":
        _print_json(report)
        return EXIT_OK
    lines = [f"model: {model.label or '(unlabeled)'} ({model.modes} mode(s), p={model.n_params})"]
    lines.append("qfim:")
    lines.extend("  " + " ".join(_fmt(x) for x in row) for row in qfim)
    lines.append("fim(sigma_m):")
    lines.extend("  " + " ".join(_fmt(x) for x in row) for row in fim)
    lines.append(f"half-qfim deviation max|F(s,s) - J/2| = {_fmt(deviation)}")
    lines.append(f"chained scalar bound tr[W dbeta^T F+ dbeta] = {_fmt(chained)}")
    lines.append(f"two_c_gs                                  = {_fmt(two_c_gs)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_check_povm(args) -> int:
    povm = povm_mod.load_povm(args.povm)
    model = load_model(args.model)
    analysis = analyze(model, args.rank_tol)
    q = model.n_targets
    beta = np.array([float(x) for x in args.beta.split(",")]) if args.beta else np.zeros(q)
    if beta.shape != (q,):
        raise ValueError(f"--beta needs {q} entries, got {beta.shape[0]}")

    with naming(args.povm):  # every failure from here on is the measurement's
        if povm.estimates.shape[1] != q:
            raise ModelError(f"estimates: {povm.estimates.shape[1]} column(s), expected the model's q = {q}")
        report_data = povm_mod.measurement_report(povm, model, beta)
        dv_min, dz_min = povm_mod.matrix_crb_check(report_data, model)
    tr_w_sigma = float(np.trace(model.weight @ report_data.sigma))
    breport, sol, timings, code = _bound_pipeline(analysis, args)
    if code != EXIT_OK:
        _diag(f"solver failed while computing bound comparison: {_failed_solve(sol)}")
        return EXIT_SOLVER
    report = {
        "model_label": model.label,
        "unbias_residual": report_data.unbias_residual,
        "sigma": [[float(x) for x in row] for row in report_data.sigma],
        "min_eig_sigma_minus_v": dv_min,
        "min_eig_sigma_minus_z": dz_min,
        "tr_w_sigma": tr_w_sigma,
        "c_gs": breport["c_gs"],
        "c_h": breport["c_h"],
        "c_d": breport["c_d"],
        "c_h_method": breport["c_h_method"],
        "tolerances": _tolerances(args),
    }
    if args.format == "json":
        _print_json(report)
        return EXIT_OK
    lines = [f"model: {model.label or '(unlabeled)'}"]
    lines.append(f"unbiasedness residual: {_fmt(report_data.unbias_residual)}")
    lines.append("sigma:")
    lines.extend("  " + " ".join(_fmt(x) for x in row) for row in report_data.sigma)
    lines.append(f"min eig (sigma - V): {_fmt(dv_min)}")
    lines.append(f"min eig (sigma - Z): {_fmt(dz_min)}")
    lines.append(
        f"tr W sigma = {_fmt(tr_w_sigma)} vs c_gs = {_fmt(report['c_gs'])}, "
        f"c_h = {_fmt(report['c_h'])}, c_d = {_fmt(report['c_d'])}"
    )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _parse_values(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be 'start:stop:count' or comma-separated values")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        return [float(x) for x in np.linspace(start, stop, count)]
    return [float(x) for x in spec.split(",")]


def cmd_sweep(args) -> int:
    values = _parse_values(args.values)
    fixed = [float(x) for x in args.fixed.split(",")] if args.fixed else []
    rows = []
    for value in values:
        model = fixture(args.fixture, [value] + fixed)
        validate(model)
        report, sol, _, code = _bound_pipeline(analyze(model, args.rank_tol), args)
        if code != EXIT_OK:
            _diag(f"solver failed at param {value!r}: {_failed_solve(sol)}")
            return EXIT_SOLVER
        rows.append((value, report["c_gs"], report["c_h"], report["c_d"],
                     report["two_c_gs"], report["duality_gap"]))
    sys.stdout.write("param,c_gs,c_h,c_d,two_c_gs,gap\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt(x) for x in row) + "\n")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    if not args.emit:
        for name, params in FIXTURES.items():
            sys.stdout.write(f"{name}: {params}\n")
        return EXIT_OK
    params: list[float] = []
    if args.seed is not None:
        params.append(float(args.seed))
    if args.params:
        params.extend(float(x) for x in args.params.split(","))
    model = fixture(args.emit, params)
    if args.out:
        save_model(model, args.out)
        _diag(f"wrote {args.out}")
    else:
        _print_json(model_to_dict(model))
    return EXIT_OK


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with a minus sign and a number, such as the
    list ``-0.3,0.1``, as a value; argparse would take it for an option.  A
    usage error is a ValueError, which :func:`main` maps to exit 1 with one
    stderr line, where argparse would print the usage and exit 2."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcrb",
        description="Precision bounds for multiparameter quantum estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json"), solver=True):
        if solver:
            p.add_argument("--tol", type=float, default=1e-8,
                           help="relative width of c_h's certified bracket (dual) or duality gap (SDP)")
            p.add_argument("--max-iter", type=int, default=200,
                           help="Newton steps on the dual before the SDP takes over; SDP iteration cap")
        p.add_argument("--rank-tol", type=float, default=1e-10, help="relative spectral rank cutoff")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("bounds", help="compute c_gs, c_h, c_d for a model file")
    p.add_argument("model")
    common(p)
    p.add_argument("--include-x-opt", action="store_true",
                   help="include optimal influence-operator coefficients in the report")
    p.add_argument("--timings", action="store_true",
                   help="embed wall-clock timings in the report (breaks byte determinism)")

    p = sub.add_parser("gaussian", help="information matrices of a Gaussian shift model")
    p.add_argument("model")
    p.add_argument("--measurement-cm", help="measurement CM file; default sigma_m = sigma")
    common(p, solver=False)

    p = sub.add_parser("check-povm", help="audit a POVM against a model")
    p.add_argument("povm")
    p.add_argument("model")
    p.add_argument("--beta", help="comma-separated target values at the true point (default 0)")
    common(p)

    p = sub.add_parser("sweep", help="sweep a fixture parameter, CSV to stdout")
    p.add_argument("fixture")
    p.add_argument("values", help="comma-separated values or start:stop:count")
    p.add_argument("--fixed", help="comma-separated trailing fixture params")
    common(p, formats=())

    p = sub.add_parser("fixtures", help="list built-in fixtures or emit one as a model file")
    p.add_argument("--emit", help="fixture name to materialize")
    p.add_argument("--params", help="comma-separated fixture parameters")
    p.add_argument("--seed", type=int, help="seed (prepended to params) for randomized fixtures")
    p.add_argument("--out", help="output model file path")
    return parser


#: Built once per process; parsing leaves it unchanged.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        _check_solver_flags(args)
        # looked up now, not bound into the parser at import: see the module docstring
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in FAILURES if isinstance(exc, cls))
        _diag(f"{prefix}: {exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())
