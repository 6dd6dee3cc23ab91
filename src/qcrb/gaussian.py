"""Gaussian shift models: parameters in the first moments only.

Conventions
-----------
Phase-space ordering is (x_1, p_1, ..., x_k, p_k).  The covariance matrix
is σ = 2·⟨(r − r̄) ∘ (r − r̄)ᵀ⟩, so the vacuum has σ = I and physicality
reads σ + iΩ ⪰ 0.  This normalization is the one consistent with the
general-dyne outcome density

    p(r_out) = exp[−(r_out − r̄)ᵀ (σ + σ_m)⁻¹ (r_out − r̄)] / (π^k √det(σ + σ_m))

and with the information formulas F = 2 (∂r)ᵀ (σ + σ_m)⁻¹ ∂r and
J = 2 (∂r)ᵀ σ⁻¹ ∂r.  Everything here is finite real linear algebra on
2k-dimensional phase space; no Fock-space objects are ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import UnphysicalCovariance
from .model import _check_dbeta, _check_weight, _label, _positive_int, _real_matrix, _real_vector, read_json, write_json

__all__ = [
    "GaussianShiftModel",
    "GaussianMeasurement",
    "symplectic_form",
    "validate_cm",
    "gaussian_fim",
    "gaussian_qfim",
    "half_qfim_check",
    "load_gaussian_model",
    "save_gaussian_model",
    "load_measurement",
]

CM_TOL = 1e-10


@dataclass(frozen=True)
class GaussianShiftModel:
    """Gaussian state family with parameter-independent covariance.

    ``djacobian`` is the 2k×p matrix of mean-vector derivatives; ``cm`` the
    2k×2k covariance matrix; ``mean`` the first moments at the true
    parameter point.  ``dbeta`` (p×q) and ``weight`` (q×q) are optional and
    default to identities; they only enter the chained scalar-bound
    comparison.
    """

    modes: int
    djacobian: np.ndarray
    cm: np.ndarray
    mean: np.ndarray
    dbeta: np.ndarray | None = None
    weight: np.ndarray | None = None
    label: str = ""

    @property
    def n_params(self) -> int:
        return self.djacobian.shape[1]

    def dbeta_or_default(self) -> np.ndarray:
        return np.eye(self.n_params) if self.dbeta is None else np.asarray(self.dbeta, dtype=float)

    def weight_or_default(self) -> np.ndarray:
        q = self.dbeta_or_default().shape[1]
        return np.eye(q) if self.weight is None else np.asarray(self.weight, dtype=float)


@dataclass(frozen=True)
class GaussianMeasurement:
    """General-dyne measurement, characterized by its physical CM."""

    cm_m: np.ndarray


def symplectic_form(k: int) -> np.ndarray:
    """Block-diagonal symplectic form, k blocks of [[0, 1], [−1, 0]]."""
    if k < 1:
        raise ValueError(f"mode count must be >= 1, got {k}")
    omega = np.zeros((2 * k, 2 * k))
    for i in range(k):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


def validate_cm(cm: np.ndarray, k: int) -> bool:
    """Physicality test: min eigenvalue of the Hermitian σ + iΩ at least −``CM_TOL``."""
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (2 * k, 2 * k):
        raise ValueError(f"covariance matrix has shape {cm.shape}, expected {(2 * k, 2 * k)}")
    if _asymmetric(cm):
        raise ValueError("covariance matrix must be symmetric")
    herm = cm.astype(complex) + 1j * symplectic_form(k)
    return bool(np.linalg.eigvalsh(herm).min() >= -CM_TOL)


def _asymmetric(cm: np.ndarray) -> bool:
    return bool(np.abs(cm - cm.T).max() > 1e-12 * max(1.0, np.abs(cm).max()))


def _decode_cm(obj, modes: int) -> np.ndarray:
    """The symmetric 2k×2k covariance matrix of a file's ``cm`` field, k = ``modes``."""
    cm = _real_matrix(obj, "cm")
    if cm.shape != (2 * modes, 2 * modes):
        raise ValueError(f"cm: shape {cm.shape} does not match modes={modes}")
    if _asymmetric(cm):
        raise ValueError("cm: covariance matrix must be symmetric")
    return cm


def _information(cm: np.ndarray, dr: np.ndarray, name: str) -> np.ndarray:
    """2 (∂r)ᵀ cm⁻¹ ∂r = 2GᵀG with G = L⁻¹∂r, L Lᵀ the Cholesky factorization of ``cm``, the matrix ``name``.

    The factor both decides that ``cm`` is positive definite and gives the solve; without one,
    :class:`UnphysicalCovariance`.  A σ that :func:`validate_cm` accepts lacks one only through
    ``CM_TOL``'s slack, since σ + iΩ ⪰ 0 implies σ ≻ 0."""
    try:
        low = np.linalg.cholesky(cm)
    except np.linalg.LinAlgError as exc:
        raise UnphysicalCovariance(f"{name} has no Cholesky factor") from exc
    g = np.linalg.solve(low, dr)
    return 2.0 * (g.T @ g)


def gaussian_fim(model: GaussianShiftModel, meas: GaussianMeasurement) -> np.ndarray:
    """Classical information matrix 2 (∂r)ᵀ (σ + σ_m)⁻¹ ∂r of general-dyne outcomes."""
    return _information(np.asarray(model.cm, dtype=float) + np.asarray(meas.cm_m, dtype=float), model.djacobian,
                        "sigma + sigma_m")


def gaussian_qfim(model: GaussianShiftModel) -> np.ndarray:
    """Quantum information matrix 2 (∂r)ᵀ σ⁻¹ ∂r of the shift model."""
    return _information(np.asarray(model.cm, dtype=float), model.djacobian, "sigma")


def half_qfim_check(model: GaussianShiftModel) -> tuple[np.ndarray, np.ndarray, float]:
    """Measure with σ_m = σ and compare: returns (F, J, ‖F − J/2‖_max).

    The deviation is zero up to linear-algebra roundoff for every valid
    model: 2(σ+σ)⁻¹ = σ⁻¹ identically.
    """
    j = gaussian_qfim(model)
    f = gaussian_fim(model, GaussianMeasurement(cm_m=np.asarray(model.cm, dtype=float)))
    return f, j, float(np.abs(f - j / 2).max())


# ---------------------------------------------------------------------------
# file formats (same conventions as the quantum-model files)


def gaussian_model_from_dict(data: dict) -> GaussianShiftModel:
    for key in ("modes", "cm", "djacobian"):
        if key not in data:
            raise ValueError(f"gaussian model file misses required field '{key}'")
    k = _positive_int(data["modes"], "modes")
    cm = _decode_cm(data["cm"], k)
    dj = _real_matrix(data["djacobian"], "djacobian")
    if dj.shape[0] != 2 * k:
        raise ValueError(f"djacobian: {dj.shape[0]} rows do not match modes={k}")
    if not dj.shape[1]:
        raise ValueError("djacobian: expected one column per parameter, got none")
    mean = _real_vector(data["mean"], "mean") if "mean" in data else np.zeros(2 * k)
    if mean.shape != (2 * k,):
        raise ValueError(f"mean: shape {mean.shape}, expected ({2 * k},)")
    dbeta = _real_matrix(data["dbeta"], "dbeta") if "dbeta" in data else None
    if dbeta is not None:  # p×q of full column rank, as in a quantum model file
        _check_dbeta(dbeta, dj.shape[1])
    weight = _real_matrix(data["weight"], "weight") if "weight" in data else None
    if weight is not None:  # q×q and PSD, as in a quantum model file; q defaults to p
        _check_weight(weight, dj.shape[1] if dbeta is None else dbeta.shape[1])
    model = GaussianShiftModel(modes=k, djacobian=dj, cm=cm, mean=mean,
                               dbeta=dbeta, weight=weight, label=_label(data))
    if not validate_cm(cm, k):  # last: a malformed field is reported first
        raise UnphysicalCovariance("sigma + i*Omega has negative eigenvalues")
    return model


def gaussian_model_to_dict(model: GaussianShiftModel) -> dict:
    out = {
        "modes": int(model.modes),
        "cm": [[float(x) for x in row] for row in np.asarray(model.cm, dtype=float)],
        "djacobian": [[float(x) for x in row] for row in np.asarray(model.djacobian, dtype=float)],
        "mean": [float(x) for x in np.asarray(model.mean, dtype=float)],
    }
    if model.dbeta is not None:
        out["dbeta"] = [[float(x) for x in row] for row in np.asarray(model.dbeta, dtype=float)]
    if model.weight is not None:
        out["weight"] = [[float(x) for x in row] for row in np.asarray(model.weight, dtype=float)]
    if model.label:
        out["label"] = model.label
    return out


def load_gaussian_model(path) -> GaussianShiftModel:
    """Load and validate a Gaussian model file; every error keeps its class and names the file."""
    return read_json(path, gaussian_model_from_dict)


def save_gaussian_model(model: GaussianShiftModel, path) -> None:
    write_json(gaussian_model_to_dict(model), path)


def load_measurement(path, modes: int) -> GaussianMeasurement:
    """Load and validate a measurement CM file {"cm": [[...]]}, as :func:`load_gaussian_model` does."""
    def parse(data):
        if "cm" not in data:
            raise ValueError("measurement file misses field 'cm'")
        cm_m = _decode_cm(data["cm"], modes)
        if not validate_cm(cm_m, modes):
            raise UnphysicalCovariance("sigma_m + i*Omega has negative eigenvalues")
        return GaussianMeasurement(cm_m=cm_m)

    return read_json(path, parse)
