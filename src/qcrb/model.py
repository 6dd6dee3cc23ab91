"""Finite-dimensional quantum statistical models at a fixed parameter point.

A model stores the already-evaluated objects: the density matrix, its
partial derivatives, the derivative matrix of the target map, and the
weight matrix.  Nothing symbolic is kept — derivative provenance stays
with the user.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from . import linalg
from .exceptions import (
    ModelError,
    NonHermitianDerivative,
    NotDensityMatrix,
    RankDeficientDbeta,
)

__all__ = [
    "QuantumModel",
    "validate",
    "load_model",
    "save_model",
    "read_json",
    "naming",
    "write_json",
    "model_to_dict",
    "model_from_dict",
    "fixture",
    "FIXTURES",
    "FIXTURE_NAMES",
]

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
RANK_TOL = 1e-10

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_SIGMA_X, _SIGMA_Y, _SIGMA_Z)


@dataclass(frozen=True)
class QuantumModel:
    """Quantum statistical model evaluated at the true parameter value.

    Attributes
    ----------
    dim : Hilbert-space dimension d.
    rho : (d, d) complex density matrix.
    drho : (p, d, d) complex partial derivatives of rho.
    dbeta : (p, q) real derivative matrix of the target map.
    weight : (q, q) real symmetric PSD weight matrix.
    label : free-form description.

    ``rho_eig`` and ``weight_eig`` are decomposed on first use and kept with
    the model, so that :func:`validate` and :func:`qcrb.sld.analyze` share
    one decomposition of each; a model's arrays are therefore never changed
    in place.
    """

    dim: int
    rho: np.ndarray
    drho: np.ndarray
    dbeta: np.ndarray
    weight: np.ndarray
    label: str = ""

    @property
    def n_params(self) -> int:
        return self.drho.shape[0]

    @property
    def n_targets(self) -> int:
        return self.dbeta.shape[1]

    @cached_property
    def rho_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigendecomposition of the exactly Hermitized rho (read-only arrays)."""
        return _read_only(np.linalg.eigh(linalg.hermitian_part(np.asarray(self.rho, dtype=complex))))

    @cached_property
    def weight_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`qcrb.linalg.symmetric_eigh` of the weight (read-only arrays);
        ``ValueError`` when it is not square or not symmetric."""
        return _read_only(linalg.symmetric_eigh(self.weight, "weight"))


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def validate(model: QuantumModel) -> None:
    """Check every model invariant that does not depend on rho's support.

    The rank of rho and the fixed-rank condition (no derivative content in
    the kernel×kernel block of rho) depend on where the support ends, so
    :func:`qcrb.sld.analyze` decides them with its own ``rank_tol``.

    Raises
    ------
    NotDensityMatrix, NonHermitianDerivative, RankDeficientDbeta, ModelError
        Typed errors naming the violated invariant.
    """
    rho = np.asarray(model.rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise NotDensityMatrix(f"rho has shape {rho.shape}, expected ({model.dim}, {model.dim})")
    try:
        linalg.require_hermitian(rho, "rho")
    except ValueError as exc:
        raise NotDensityMatrix(str(exc)) from exc
    tr = np.trace(rho).real  # bitwise the trace of the Hermitized rho, which rho_eig decomposes
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotDensityMatrix(f"Tr rho = {tr!r} differs from 1 beyond {TRACE_TOL}")
    vals = model.rho_eig[0]
    if vals.min() < -PSD_TOL:
        raise NotDensityMatrix(f"rho has negative eigenvalue {vals.min():.3e}")

    drho = np.asarray(model.drho, dtype=complex)
    if drho.ndim != 3 or drho.shape[1:] != (model.dim, model.dim):
        raise NonHermitianDerivative(f"drho has shape {drho.shape}, expected (p, {model.dim}, {model.dim})")
    # the checks of linalg.require_hermitian and of the trace, on every drho[j] at once
    scale = np.fmax(np.abs(drho).max(axis=(1, 2)), 1.0)
    deviation = np.abs(drho - drho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    traces = np.trace(drho, axis1=1, axis2=2)
    skew = deviation > linalg.HERMITICITY_TOL * scale
    bad = skew | (np.abs(traces) > TRACE_TOL * scale)
    if bad.any():
        j = int(bad.argmax())  # the first
        if skew[j]:
            raise NonHermitianDerivative(
                f"drho[{j}] is not Hermitian (deviation {deviation[j]:.3e}, scale {scale[j]:.3e})")
        raise NonHermitianDerivative(f"drho[{j}] has trace {traces[j]!r}, expected 0 (unit-trace family)")

    dbeta = np.asarray(model.dbeta, dtype=float)
    _check_dbeta(dbeta, drho.shape[0])

    _check_weight(model.weight, dbeta.shape[1], lambda: model.weight_eig)


def _check_dbeta(dbeta: np.ndarray, p: int) -> None:
    """Raise :class:`RankDeficientDbeta` unless ``dbeta`` is a p×q matrix of
    full column rank q ≥ 1 (so q ≤ p)."""
    if dbeta.ndim != 2 or dbeta.shape[0] != p:
        raise RankDeficientDbeta(f"dbeta has shape {dbeta.shape}, expected ({p}, q)")
    q = dbeta.shape[1]
    svals = np.linalg.svd(dbeta, compute_uv=False)
    if not 0 < q <= svals.size or svals.min() <= RANK_TOL * max(svals.max(), 1e-300):
        raise RankDeficientDbeta(
            f"dbeta must have full column rank {q}; singular values {np.array2string(svals, precision=3)}"
        )


def _check_weight(weight: np.ndarray, q: int, eig=None) -> None:
    """Raise :class:`ModelError` unless ``weight`` is a q×q symmetric
    positive semidefinite matrix, eigenvalues down to −1e-8 of its scale
    accepted.  ``eig`` returns its :func:`qcrb.linalg.symmetric_eigh` when
    the caller keeps one."""
    weight = np.asarray(weight, dtype=float)
    if weight.shape != (q, q):
        raise ModelError(f"weight has shape {weight.shape}, expected ({q}, {q})")
    try:
        vals = (eig() if eig else linalg.symmetric_eigh(weight, "weight"))[0]
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    scale = max(float(np.trace(weight)), float(np.abs(vals).max()), 1e-300)
    if vals.min() < -1e-8 * scale:
        raise ModelError(f"weight is not positive semidefinite (min eigenvalue {vals.min():.3e})")


# ---------------------------------------------------------------------------
# serialization


@contextmanager
def naming(path):
    """Prepend ``path`` to the message of a ValueError raised in the block, keeping
    its class: the one way an input error names its file."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_json(path, parse):
    """``parse``, which decodes and validates, of the JSON object in the input file ``path``; every
    ValueError on the way (not UTF-8, a decode error, another top level, any of ``parse``) names the file."""
    with open(path, "r", encoding="utf-8") as fh, naming(path):
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"not UTF-8 text: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object at the top level, got {json.dumps(data)[:40]}")
        return parse(data)


def write_json(data, path) -> None:
    """Write ``data`` as indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _complex_matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _number(value, where: str) -> float:
    """A finite JSON number; booleans, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return value


def _positive_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{where}: expected a positive integer, got {value!r}")
    return value


def _decode_matrix(obj, where: str, pairs: bool) -> np.ndarray:
    """The float array of a JSON matrix: rows of numbers, shape (n, m), or with
    ``pairs`` a non-empty list of rows of [re, im] pairs, shape (n, m, 2).

    Every entry must be a finite int or float (not a bool).  The rows, the
    pairs and the set of entry types are read with C-level iteration
    (``map``, ``chain``) over the whole matrix, then the flat list of
    entries takes one conversion, one reshape and one finiteness check;
    when any of them fails, :func:`_reject` reads the input again to name
    the first bad entry.  Numbers are not checked in a real matrix whose
    rows are not all lists (or that has no rows): the conversion rejects it
    or returns an array of the wrong rank.
    """
    if pairs and not (isinstance(obj, list) and obj):
        raise ValueError(f"{where}: expected a non-empty list of rows")
    nested = isinstance(obj, list) and bool(obj) and all(map(isinstance, obj, repeat(list)))
    if not (pairs or nested):
        try:
            arr = np.array(obj, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where}: expected a rectangular real matrix") from exc
        if arr.ndim != 2:
            raise ValueError(f"{where}: expected a matrix, got ndim={arr.ndim}")
        return arr
    if not nested:
        _reject(obj, where, pairs)
    values = list(chain.from_iterable(obj))
    if pairs:
        if not (all(map(isinstance, values, repeat(list))) and set(map(len, values)) <= {2}):
            _reject(obj, where, pairs)
        values = list(chain.from_iterable(values))
    types = set(map(type, values))
    widths = set(map(len, obj))
    arr = None
    if bool not in types and all(map(issubclass, types, repeat((int, float)))) and len(widths) == 1:
        try:
            arr = np.array(values, dtype=float).reshape((len(obj), *widths) + (2,) * pairs)
        except OverflowError:  # an int beyond the float range
            pass
    if arr is None or not np.isfinite(arr).all():
        _reject(obj, where, pairs)
    return arr


def _reject(obj, where: str, pairs: bool):
    """Raise the error that names the first bad entry of the matrix ``obj``
    of :func:`_decode_matrix`, in reading order, else the error for its rows."""
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ValueError(f"{where}[{i}]: expected a list of [re, im] pairs")
        for j, x in enumerate(row):
            if pairs and not (isinstance(x, list) and len(x) == 2):
                raise ValueError(f"{where}[{i}][{j}]: expected an [re, im] pair")
            for value in x if pairs else (x,):
                _number(value, f"{where}[{i}][{j}]")
    raise ValueError(f"{where}: ragged rows" if pairs else f"{where}: expected a rectangular real matrix")


def _real_vector(obj, where: str) -> np.ndarray:
    """The float array of a JSON list of finite numbers, shape (n,)."""
    if not isinstance(obj, list):
        raise ValueError(f"{where}: expected a list of numbers")
    return np.array([_number(x, f"{where}[{i}]") for i, x in enumerate(obj)], dtype=float)


def _label(data: dict) -> str:
    """The optional ``label`` of an input file, which must be a string."""
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError("label: expected a string")
    return label


def _pairs_to_complex_matrix(obj, where: str) -> np.ndarray:
    arr = _decode_matrix(obj, where, pairs=True)
    return arr.view(complex).reshape(arr.shape[:2])


def _real_matrix(obj, where: str) -> np.ndarray:
    return _decode_matrix(obj, where, pairs=False)


def model_to_dict(model: QuantumModel) -> dict:
    out = {
        "dim": int(model.dim),
        "rho": _complex_matrix_to_pairs(model.rho),
        "drho": [_complex_matrix_to_pairs(dj) for dj in model.drho],
        "dbeta": [[float(x) for x in row] for row in np.asarray(model.dbeta, dtype=float)],
        "weight": [[float(x) for x in row] for row in np.asarray(model.weight, dtype=float)],
    }
    if model.label:
        out["label"] = model.label
    return out


def model_from_dict(data: dict) -> QuantumModel:
    """The model a decoded model file describes, checked by :func:`validate`."""
    for key in ("dim", "rho", "drho", "dbeta"):
        if key not in data:
            raise ValueError(f"model file misses required field '{key}'")
    dim = _positive_int(data["dim"], "dim")
    rho = _pairs_to_complex_matrix(data["rho"], "rho")
    if rho.shape != (dim, dim):
        raise ValueError(f"rho: shape {rho.shape} does not match dim={dim}")
    if not isinstance(data["drho"], list) or not data["drho"]:
        raise ValueError("drho: expected a non-empty list of matrices")
    drho = np.array([_pairs_to_complex_matrix(dj, f"drho[{j}]") for j, dj in enumerate(data["drho"])])
    if drho.shape[1:] != (dim, dim):
        raise ValueError(f"drho: matrices of shape {drho.shape[1:]} do not match dim={dim}")
    dbeta = _real_matrix(data["dbeta"], "dbeta")
    q = dbeta.shape[1]
    weight = _real_matrix(data["weight"], "weight") if "weight" in data else np.eye(q)
    model = QuantumModel(dim=dim, rho=rho, drho=drho, dbeta=dbeta, weight=weight, label=_label(data))
    validate(model)
    return model


def load_model(path) -> QuantumModel:
    """Load and validate a model file (JSON, complex entries as [re, im]); every
    error, a :func:`validate` error included, keeps its class and names the file."""
    return read_json(path, model_from_dict)


def save_model(model: QuantumModel, path) -> None:
    write_json(model_to_dict(model), path)


# ---------------------------------------------------------------------------
# built-in fixtures

#: Each built-in model's name and parameters, in the order ``qcrb fixtures`` lists them.
FIXTURES = {
    "qubit_bloch": "params rx,ry,rz with |r|<1; p=q=3",
    "qubit_xy_at_z": "params z with |z|<1; transverse-derivative qubit, p=q=2",
    "pure_qubit_angles": "params theta,phi (away from poles); rank-1 state, p=q=2, QFIM weight",
    "classical_diagonal": "params p1..p_{d-1} (>0, sum<1); commuting diagonal model",
    "random_full_rank": "params seed[,d[,p[,q]]]; seeded random full-rank model",
}
FIXTURE_NAMES = tuple(FIXTURES)


def _bloch_state(n: np.ndarray) -> np.ndarray:
    return (np.eye(2, dtype=complex) + n[0] * _SIGMA_X + n[1] * _SIGMA_Y + n[2] * _SIGMA_Z) / 2


def fixture(name: str, params) -> QuantumModel:
    """Construct the built-in model ``name`` of :data:`FIXTURES`, which lists its ``params``."""
    params = [float(x) for x in params]
    if name == "qubit_bloch":
        if len(params) != 3:
            raise ValueError("qubit_bloch expects params (rx, ry, rz)")
        r = np.array(params)
        if np.linalg.norm(r) >= 1:
            raise ValueError(f"qubit_bloch requires |r| < 1, got |r| = {np.linalg.norm(r):.6f}")
        return QuantumModel(
            dim=2,
            rho=_bloch_state(r),
            drho=np.array([s / 2 for s in _PAULIS]),
            dbeta=np.eye(3),
            weight=np.eye(3),
            label=f"qubit_bloch({params[0]!r}, {params[1]!r}, {params[2]!r})",
        )
    if name == "qubit_xy_at_z":
        if len(params) != 1:
            raise ValueError("qubit_xy_at_z expects params (z,)")
        z = params[0]
        if abs(z) >= 1:
            raise ValueError(f"qubit_xy_at_z requires |z| < 1, got {z!r}")
        return QuantumModel(
            dim=2,
            rho=_bloch_state(np.array([0.0, 0.0, z])),
            drho=np.array([_SIGMA_X / 2, _SIGMA_Y / 2]),
            dbeta=np.eye(2),
            weight=np.eye(2),
            label=f"qubit_xy_at_z({z!r})",
        )
    if name == "pure_qubit_angles":
        if len(params) != 2:
            raise ValueError("pure_qubit_angles expects params (theta, phi)")
        theta, phi = params
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        if abs(st) < 1e-6:
            raise ValueError("pure_qubit_angles is degenerate at the poles (sin(theta) ~ 0)")
        # W = J = diag(1, sin²θ): the risk under which pure-state tomography
        # saturates the upper bound chain
        n = np.array([st * cp, st * sp, ct])
        dn_theta = np.array([ct * cp, ct * sp, -st])
        dn_phi = np.array([-st * sp, st * cp, 0.0])
        drho = np.array(
            [
                (dn_theta[0] * _SIGMA_X + dn_theta[1] * _SIGMA_Y + dn_theta[2] * _SIGMA_Z) / 2,
                (dn_phi[0] * _SIGMA_X + dn_phi[1] * _SIGMA_Y + dn_phi[2] * _SIGMA_Z) / 2,
            ]
        )
        return QuantumModel(
            dim=2,
            rho=_bloch_state(n),
            drho=drho,
            dbeta=np.eye(2),
            weight=np.diag([1.0, st * st]),
            label=f"pure_qubit_angles({theta!r}, {phi!r})",
        )
    if name == "classical_diagonal":
        if not params:
            raise ValueError("classical_diagonal expects params (p1, ..., p_{d-1})")
        probs = np.array(params)
        if probs.min() <= 0 or probs.sum() >= 1:
            raise ValueError("classical_diagonal requires p_i > 0 with sum < 1 (full rank)")
        d = len(probs) + 1
        diag = np.append(probs, 1.0 - probs.sum())
        drho = np.zeros((d - 1, d, d), dtype=complex)
        for j in range(d - 1):
            drho[j, j, j] = 1.0
            drho[j, d - 1, d - 1] = -1.0
        return QuantumModel(
            dim=d,
            rho=np.diag(diag).astype(complex),
            drho=drho,
            dbeta=np.eye(d - 1),
            weight=np.eye(d - 1),
            label=f"classical_diagonal({', '.join(repr(x) for x in params)})",
        )
    if name == "random_full_rank":
        if not params:
            raise ValueError("random_full_rank expects params (seed[, d[, p[, q]]])")
        seed = int(params[0])  # defaults d = 3, p = q = 2
        d = int(params[1]) if len(params) > 1 else 3
        p = int(params[2]) if len(params) > 2 else 2
        q = int(params[3]) if len(params) > 3 else 2
        if d < 2 or p < 1 or q < 1 or q > p:
            raise ValueError("random_full_rank requires d >= 2 and 1 <= q <= p")
        if p > d * d - 1:
            raise ValueError(f"random_full_rank requires p <= d²-1 = {d * d - 1} for a feasible model")
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho = 0.9 * rho / np.trace(rho).real + 0.1 * np.eye(d) / d
        rho = linalg.hermitian_part(rho)
        drho = []
        for _ in range(p):
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = linalg.hermitian_part(h)
            h -= np.trace(h).real / d * np.eye(d)
            drho.append(h)
        dbeta = rng.normal(size=(p, q))
        return QuantumModel(
            dim=d,
            rho=rho,
            drho=np.array(drho),
            dbeta=dbeta,
            weight=np.eye(q),
            label=f"random_full_rank(seed={seed}, d={d}, p={p}, q={q})",
        )
    raise ValueError(f"unknown fixture '{name}'; known: {', '.join(FIXTURE_NAMES)}")
