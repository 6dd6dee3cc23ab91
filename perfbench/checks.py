"""Checks on the output of one benchmark op.

An op passes when it exits with the expected code and its report is
parseable, Optimal, verified, ordered c_gs ≤ c_h ≤ c_d ≤ 2·c_gs within the
library's own verification tolerance, satisfies the exact theorem its
kind carries, and prints c_h within ``REF_TOL`` of the reference table.

Separately, an op counts as an *ordering violation* when its printed
floats break c_gs ≤ c_h ≤ c_d ≤ 2·c_gs with no tolerance at all.  That is
a known defect of the reported numbers, counted but not failed.
"""

from __future__ import annotations

import json
import re

import numpy as np

#: Relative tolerance of qcrb's own solution verification.
VERIFY_TOL = 1e-7
#: 100x the default SDP relative duality-gap tolerance (1e-8).
REF_TOL = 1e-6
#: Matrix inequalities (Σ ⪰ V, Σ ⪰ Z, F ⪯ J) allow this roundoff.
EIG_TOL = 1e-9

_TEXT_CHAIN = re.compile(r"^c_gs <= c_h <= c_d <= 2\*c_gs : (\S+) <= (\S+) <= (\S+) <= (\S+)$", re.M)
_TEXT_SOLVER = re.compile(r"^solver: (\S+) after (\d+) iterations", re.M)


class CheckFailed(Exception):
    pass


def _le(a: float, b: float, tol: float) -> bool:
    return a <= b + tol * max(1.0, abs(b))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _chain(gs: float, h: float, d: float, two_gs: float) -> tuple[bool, bool]:
    """(ordered within VERIFY_TOL, ordered exactly)."""
    loose = _le(gs, h, VERIFY_TOL) and _le(h, d, VERIFY_TOL) and _le(d, two_gs, VERIFY_TOL)
    return loose, gs <= h <= d <= two_gs


def _triple(op, gs, h, d, two_gs, ref, reference) -> bool:
    """Check one printed (c_gs, c_h, c_d, 2c_gs); returns the exact-ordering flag."""
    loose, exact = _chain(gs, h, d, two_gs)
    if not loose:
        raise CheckFailed(f"ordering broken beyond {VERIFY_TOL}: {gs!r} {h!r} {d!r} {two_gs!r}")
    if op.theorem == "gs" and not _close(h, gs, VERIFY_TOL):
        raise CheckFailed(f"c_h={h!r} differs from c_gs={gs!r} (q = 1 or commuting model)")
    if op.theorem == "cd" and not _close(h, d, VERIFY_TOL):
        raise CheckFailed(f"c_h={h!r} differs from c_d={d!r} (D-invariant model)")
    if ref is not None:
        if ref not in reference:
            raise CheckFailed(f"no reference value for {ref}")
        want = reference[ref]
        if abs(h - want) > REF_TOL * abs(want):
            raise CheckFailed(f"c_h={h!r} differs from reference {want!r} for {ref}")
    return exact


def _bounds_json(op, out, reference) -> bool:
    rep = json.loads(out)
    if rep.get("solver_status") != "Optimal" or rep.get("verified") is not True:
        raise CheckFailed(f"status {rep.get('solver_status')!r}, verified {rep.get('verified')!r}")
    if "x_opt_len" in op.extra:
        coeffs = rep.get("x_opt_coefficients")
        if not coeffs or any(len(row) != op.extra["x_opt_len"] for row in coeffs) \
                or len(coeffs) != op.extra["q"]:
            raise CheckFailed("x_opt_coefficients missing or misshapen")
    return _triple(op, rep["c_gs"], rep["c_h"], rep["c_d"], rep["two_c_gs"], op.refs[0], reference)


def _bounds_text(op, out, reference) -> bool:
    chain = _TEXT_CHAIN.search(out)
    solver = _TEXT_SOLVER.search(out)
    if not chain or not solver or "verification:" not in out:
        raise CheckFailed("text report lacks the bound chain, solver or verification line")
    if solver.group(1) != "Optimal":
        raise CheckFailed(f"solver status {solver.group(1)!r}")
    gs, h, d, two_gs = (float(x) for x in chain.groups())
    return _triple(op, gs, h, d, two_gs, op.refs[0], reference)


def _sweep(op, out, reference) -> bool:
    lines = out.strip().splitlines()
    if lines[0] != "param,c_gs,c_h,c_d,two_c_gs,gap" or len(lines) - 1 != len(op.refs):
        raise CheckFailed(f"sweep printed {len(lines) - 1} rows, expected {len(op.refs)}")
    exact = True
    for line, ref in zip(lines[1:], op.refs):
        _, gs, h, d, two_gs, _ = (float(x) for x in line.split(","))
        exact &= _triple(op, gs, h, d, two_gs, ref, reference)
    return exact


def _povm(op, out, reference) -> bool:
    rep = json.loads(out)
    if rep["min_eig_sigma_minus_v"] < -EIG_TOL or rep["min_eig_sigma_minus_z"] < -EIG_TOL:
        raise CheckFailed("matrix Cramér-Rao inequality violated")
    if not _le(rep["c_h"], rep["tr_w_sigma"], VERIFY_TOL):
        raise CheckFailed(f"tr W Σ = {rep['tr_w_sigma']!r} below c_h = {rep['c_h']!r}")
    return _triple(op, rep["c_gs"], rep["c_h"], rep["c_d"], 2 * rep["c_gs"], op.refs[0], reference)


def _gaussian(op, out, reference) -> bool:
    rep = json.loads(out)
    qfim, fim = np.array(rep["qfim"]), np.array(rep["fim"])
    scale = max(1.0, float(np.abs(qfim).max()))
    if np.linalg.eigvalsh(qfim).min() < -EIG_TOL * scale:
        raise CheckFailed("quantum information matrix not PSD")
    if np.linalg.eigvalsh(qfim - fim).min() < -EIG_TOL * scale:
        raise CheckFailed("classical information exceeds quantum information")
    if op.parse == "gaussian":
        # measuring with the state's own CM gives exactly half the QFIM
        if rep["half_qfim_deviation"] > EIG_TOL * scale or np.abs(fim - qfim / 2).max() > EIG_TOL * scale:
            raise CheckFailed(f"half-QFIM identity off by {rep['half_qfim_deviation']!r}")
        if not _close(rep["chained_scalar_bound"], rep["two_c_gs"], VERIFY_TOL):
            raise CheckFailed("chained scalar bound differs from 2 c_gs")
    return True


def _fixture(op, out, reference) -> bool:
    rep = json.loads(out)
    expect = [float(x) for x in op.extra["params"].split(",")]
    rho = rep["rho"]
    bloch = [2 * rho[1][0][0], 2 * rho[1][0][1], rho[0][0][0] - rho[1][1][0]]
    if rep["dim"] != 2 or len(rep["drho"]) != 3 or any(abs(a - b) > 1e-12 for a, b in zip(bloch, expect)):
        raise CheckFailed("emitted qubit_bloch model does not match its parameters")
    return True


_PARSERS = {
    "bounds_json": _bounds_json,
    "bounds_text": _bounds_text,
    "sweep": _sweep,
    "povm": _povm,
    "gaussian": _gaussian,
    "gaussian_meas": _gaussian,
    "fixture": _fixture,
}


def check(op, code: int, out: str, reference: dict) -> tuple[str, bool]:
    """Return (failure reason or "", ordering violated exactly)."""
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}", False
    if op.parse == "none":
        return ("unexpected stdout", False) if out.strip() else ("", False)
    try:
        exact = _PARSERS[op.parse](op, out, reference)
    except CheckFailed as exc:
        return str(exc), False
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}", False
    return "", not exact
