"""Command-line front end.

Subcommands: ``bounds``, ``gaussian``, ``check-povm``, ``sweep``,
``fixtures``.  Reports go to stdout (byte-deterministic for identical
inputs and flags), diagnostics and timings to stderr.

Exit codes: 0 success; 1 unreadable or invalid input file; 2 semantic
rejection (infeasible model, unphysical covariance matrix, locally biased
POVM); 3 solver failure.  ``main`` maps every error to its code through
one table, :data:`FAILURES`.
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
from .exceptions import (IllDefinedFim, InfeasibleModel, NotLocallyUnbiased, ResidualTooLarge,
                         VerificationFailed)
from .model import FIXTURE_NAMES, fixture, load_model, model_to_dict, save_model, validate
from .sld import analyze

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
    (IllDefinedFim, EXIT_REJECTED, "ill-defined information matrix"),
    (VerificationFailed, EXIT_SOLVER, "verification failed"),
    (OSError, EXIT_FILE, "error"),
    (ValueError, EXIT_FILE, "error"),
)

_FIXTURE_HELP = {
    "qubit_bloch": "params rx,ry,rz with |r|<1; p=q=3",
    "qubit_xy_at_z": "params z with |z|<1; transverse-derivative qubit, p=q=2",
    "pure_qubit_angles": "params theta,phi (away from poles); rank-1 state, p=q=2, QFIM weight",
    "classical_diagonal": "params p1..p_{d-1} (>0, sum<1); commuting diagonal model",
    "random_full_rank": "params seed[,d[,p[,q]]]; seeded random full-rank model",
}


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=1) + "\n")


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _check_solver_flags(args) -> None:
    """Reject a ``--tol``, ``--max-iter`` or ``--rank-tol`` outside the range
    where it means anything, naming the flag."""
    if not hasattr(args, "tol"):
        return
    if not (np.isfinite(args.tol) and args.tol >= _EPS):
        raise ValueError(f"--tol must be a finite number >= {_EPS!r} (machine epsilon), got {args.tol!r}")
    if args.max_iter < 0:
        raise ValueError(f"--max-iter must be >= 0, got {args.max_iter}")
    if not 0 <= args.rank_tol < 1:
        raise ValueError(f"--rank-tol must be a finite number in [0, 1), got {args.rank_tol!r}")


def _analyze(model, args):
    """:func:`qcrb.sld.analyze` with ``--rank-tol``; an SLD equation left
    unsolved names the flag and the support rank it kept."""
    try:
        return analyze(model, args.rank_tol)
    except ResidualTooLarge as exc:
        raise ResidualTooLarge(f"{exc} (--rank-tol {args.rank_tol!r} kept support rank "
                               f"{exc.support_rank} of {model.dim})") from None


def _tolerances(args) -> dict:
    return {"sdp_gap": args.tol, "max_iter": args.max_iter, "rank_tol": args.rank_tol}


def _bound_pipeline(analysis, args):
    """closed forms -> SDP -> verification, on a model's analysis.

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
        basis = linalg.hermitian_basis(model.dim)
        report["x_opt_coefficients"] = [
            [float(c) for c in linalg.basis_coefficients(xs, basis)] for xs in sol.x_opt
        ]
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
    report, sol, timings, code = _bound_pipeline(_analyze(load_model(args.model), args), args)
    if code == EXIT_SOLVER:
        status = f"{sol.status} ({sol.reason})" if sol.reason else sol.status
        _diag(f"solver failed: status {status} after {sol.iterations} iterations "
              f"(gap {sol.duality_gap:.3e}); best iterate reported")
    _emit_bound_report(report, timings, args)
    return code


def cmd_gaussian(args) -> int:
    model = gaussian_mod.load_gaussian_model(args.model)
    if not gaussian_mod.validate_cm(model.cm, model.modes):
        _diag("unphysical covariance matrix: sigma + i*Omega has negative eigenvalues")
        return EXIT_REJECTED
    if args.measurement_cm:
        meas = gaussian_mod.load_measurement(args.measurement_cm, model.modes)
        if not gaussian_mod.validate_cm(meas.cm_m, model.modes):
            _diag("unphysical measurement covariance matrix")
            return EXIT_REJECTED

    f_half, qfim, deviation = gaussian_mod.half_qfim_check(model)
    fim = gaussian_mod.gaussian_fim(model, meas) if args.measurement_cm else f_half
    dbeta = model.dbeta_or_default()
    weight = model.weight_or_default()
    chained = float(np.trace(weight @ dbeta.T @ linalg.pseudoinverse(f_half, args.rank_tol) @ dbeta))
    two_c_gs = 2.0 * float(np.trace(weight @ dbeta.T @ linalg.pseudoinverse(qfim, args.rank_tol) @ dbeta))
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
    analysis = _analyze(model, args)
    q = model.n_targets
    beta = np.array([float(x) for x in args.beta.split(",")]) if args.beta else np.zeros(q)
    if beta.shape != (q,):
        raise ValueError(f"--beta needs {q} entries, got {beta.shape[0]}")

    report_data = povm_mod.measurement_report(povm, model, beta)
    dv_min, dz_min = povm_mod.matrix_crb_check(report_data, model)
    tr_w_sigma = float(np.trace(model.weight @ report_data.sigma))
    breport, sol, timings, code = _bound_pipeline(analysis, args)
    if code != EXIT_OK:
        _diag(f"solver failed while computing bound comparison: {sol.status}")
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
        report, sol, _, code = _bound_pipeline(_analyze(model, args), args)
        if code != EXIT_OK:
            _diag(f"solver failed at param {value!r}: {sol.status}")
            return EXIT_SOLVER
        rows.append((value, report["c_gs"], report["c_h"], report["c_d"],
                     report["two_c_gs"], report["duality_gap"]))
    sys.stdout.write("param,c_gs,c_h,c_d,two_c_gs,gap\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt(x) for x in row) + "\n")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    if not args.emit:
        for name in FIXTURE_NAMES:
            sys.stdout.write(f"{name}: {_FIXTURE_HELP[name]}\n")
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
    list ``-0.3,0.1``, as a value; argparse would take it for an option."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcrb",
        description="Precision bounds for multiparameter quantum estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--tol", type=float, default=1e-8, help="SDP relative-gap tolerance")
        p.add_argument("--max-iter", type=int, default=200, help="SDP iteration cap")
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
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gaussian", help="information matrices of a Gaussian shift model")
    p.add_argument("model")
    p.add_argument("--measurement-cm", help="measurement CM file; default sigma_m = sigma")
    common(p)
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("check-povm", help="audit a POVM against a model")
    p.add_argument("povm")
    p.add_argument("model")
    p.add_argument("--beta", help="comma-separated target values at the true point (default 0)")
    common(p)
    p.set_defaults(func=cmd_check_povm)

    p = sub.add_parser("sweep", help="sweep a fixture parameter, CSV to stdout")
    p.add_argument("fixture")
    p.add_argument("values", help="comma-separated values or start:stop:count")
    p.add_argument("--fixed", help="comma-separated trailing fixture params")
    common(p, formats=())
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fixtures", help="list built-in fixtures or emit one as a model file")
    p.add_argument("--emit", help="fixture name to materialize")
    p.add_argument("--params", help="comma-separated fixture parameters")
    p.add_argument("--seed", type=int, help="seed (prepended to params) for randomized fixtures")
    p.add_argument("--out", help="output model file path")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_solver_flags(args)
        return args.func(args)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in FAILURES if isinstance(exc, cls))
        _diag(f"{prefix}: {exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())
