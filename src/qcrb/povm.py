"""Discrete measurements: distributions, information, and the matrix CRBs.

A measurement is a finite POVM together with per-outcome estimates of the
target vector.  The operations here audit a measurement against a model:
Born-rule probabilities, the influence operators built from the estimates,
local unbiasedness, the error covariance, and the two matrix Cramér-Rao
checks Σ ⪰ V(X) and Σ ⪰ Z(X).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ModelError, NotLocallyUnbiased
from .model import QuantumModel, _pairs_to_complex_matrix, _positive_int, _real_matrix, read_json

__all__ = [
    "DiscretePovm",
    "MeasurementReport",
    "validate_povm",
    "born_probs",
    "influence_operators",
    "unbiasedness_residual",
    "error_covariance",
    "matrix_crb_check",
    "measurement_report",
    "load_povm",
]

POVM_TOL = 1e-10
UNBIAS_TOL = 1e-8


@dataclass(frozen=True)
class DiscretePovm:
    """POVM elements (n, d, d) and outcome estimates (n, q)."""

    elements: np.ndarray
    estimates: np.ndarray

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]


@dataclass(frozen=True)
class MeasurementReport:
    """Σ, the influence operators X and the unbiasedness residual of a measurement on a model."""

    sigma: np.ndarray
    influence: np.ndarray
    unbias_residual: float


def validate_povm(povm: DiscretePovm) -> None:
    """Each element Hermitian PSD; the elements sum to the identity."""
    elements = np.asarray(povm.elements, dtype=complex)
    if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
        raise ModelError(f"POVM elements have shape {elements.shape}, expected (n, d, d)")
    d = elements.shape[-1]
    for i, m in enumerate(elements):
        try:
            linalg.require_hermitian(m, f"element[{i}]")
        except ValueError as exc:
            raise ModelError(str(exc)) from exc
        low = np.linalg.eigvalsh(linalg.hermitian_part(m)).min()
        if low < -POVM_TOL:
            raise ModelError(f"element[{i}] is not PSD (min eigenvalue {low:.3e})")
    total = elements.sum(axis=0)
    if np.abs(total - np.eye(d)).max() > POVM_TOL:
        raise ModelError(f"POVM elements sum deviates from identity by {np.abs(total - np.eye(d)).max():.3e}")
    estimates = np.asarray(povm.estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[0] != elements.shape[0]:
        raise ModelError(f"estimates have shape {estimates.shape}, expected ({elements.shape[0]}, q)")


def born_probs(povm: DiscretePovm, rho: np.ndarray) -> np.ndarray:
    """Outcome distribution p(x) = Tr ρ M(x), clipped of −0 roundoff."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-1] != povm.dim:
        raise ModelError(f"rho dimension {rho.shape[-1]} does not match POVM dimension {povm.dim}")
    probs = np.array([np.trace(rho @ m).real for m in povm.elements])
    if probs.min() < -POVM_TOL or abs(probs.sum() - 1.0) > POVM_TOL:
        raise ModelError(f"invalid POVM/state pair: probabilities {probs}")
    return probs


def influence_operators(povm: DiscretePovm, beta: np.ndarray) -> np.ndarray:
    """X_s = Σ_x [β̌_s(x) − β_s] M(x), shape (q, d, d)."""
    estimates = np.asarray(povm.estimates, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (estimates.shape[1],):
        raise ModelError(f"beta has shape {beta.shape}, expected ({estimates.shape[1]},)")
    deviations = estimates - beta  # (n, q)
    return np.tensordot(deviations.T, povm.elements, axes=(1, 0))


def unbiasedness_residual(model: QuantumModel, x_ops: np.ndarray) -> float:
    """Residual of the two local-unbiasedness conditions on influence operators.

    residual = max(‖Tr ρ X‖_max, ‖Tr ∂ρ Xᵀ − ∂β‖_max).
    """
    states = np.concatenate([np.asarray(model.rho, dtype=complex)[None],
                             np.asarray(model.drho, dtype=complex)])
    # row 0 holds Tr ρ X_s and row 1 + j holds Tr ∂_jρ X_s, each the trace of one product
    traces = np.trace(states[:, None] @ np.asarray(x_ops)[None], axis1=2, axis2=3)
    mean_res = max(map(abs, traces[0]))  # the scalar abs: np.abs of an array matches it only to roundoff
    deriv_res = np.abs(traces[1:].real - np.asarray(model.dbeta, dtype=float)).max()
    return float(max(mean_res, deriv_res))


def error_covariance(povm: DiscretePovm, rho: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Mean square error matrix Σ = Σ_x (β̌(x) − β)(β̌(x) − β)ᵀ p(x)."""
    deviations = np.asarray(povm.estimates, dtype=float) - np.asarray(beta, dtype=float)
    sigma = (deviations.T * born_probs(povm, rho)) @ deviations
    return (sigma + sigma.T) / 2


def matrix_crb_check(report: MeasurementReport, model: QuantumModel) -> tuple[float, float]:
    """Minimum eigenvalues of Σ − V(X) and Σ − Z(X) for a locally unbiased pair.

    ``report`` is the :func:`measurement_report` of the measurement on
    ``model``.  Both are ≥ −1e−9 for any valid locally unbiased measurement;
    raises :class:`NotLocallyUnbiased` when the precondition fails.
    """
    residual = report.unbias_residual
    if not residual <= UNBIAS_TOL:
        raise NotLocallyUnbiased(
            f"measurement is not locally unbiased (residual {residual:.3e})", residual=residual
        )
    z = linalg.z_matrix(report.influence, model.rho)
    v = (z.real + z.real.T) / 2
    dv_min = float(np.linalg.eigvalsh(report.sigma - v).min())
    dz_min = float(np.linalg.eigvalsh(report.sigma.astype(complex) - z).min())
    return dv_min, dz_min


def measurement_report(povm: DiscretePovm, model: QuantumModel,
                       beta: np.ndarray) -> MeasurementReport:
    """Σ, the influence operators and the unbiasedness residual, each computed once, of a
    validated ``povm`` (:func:`load_povm` validates a file's) on ``model``; checked here only
    against the model: one ``estimates`` column per target, then the dimension."""
    q = model.n_targets
    if povm.estimates.shape[1] != q:
        raise ModelError(f"estimates: {povm.estimates.shape[1]} column(s), expected the model's q = {q}")
    if povm.dim != model.dim:
        raise ModelError(f"POVM dimension {povm.dim} does not match model dimension {model.dim}")
    influence = influence_operators(povm, beta)
    return MeasurementReport(
        sigma=error_covariance(povm, model.rho, beta),
        influence=influence,
        unbias_residual=unbiasedness_residual(model, influence),
    )


# ---------------------------------------------------------------------------
# file format


def load_povm(path) -> DiscretePovm:
    """Load a POVM file {"dim", "elements", "estimates"} and validate it;
    every error names the file, as :func:`qcrb.model.load_model`'s do."""
    return read_json(path, _povm_from_dict)


def _povm_from_dict(data: dict) -> DiscretePovm:
    for key in ("dim", "elements", "estimates"):
        if key not in data:
            raise ValueError(f"povm file misses required field '{key}'")
    d = _positive_int(data["dim"], "dim")
    if not isinstance(data["elements"], list) or not data["elements"]:
        raise ValueError("elements: expected a non-empty list of matrices")
    elements = np.array(
        [_pairs_to_complex_matrix(m, f"elements[{i}]") for i, m in enumerate(data["elements"])]
    )
    if elements.shape[1:] != (d, d):
        raise ValueError(f"elements: matrices of shape {elements.shape[1:]} do not match dim={d}")
    estimates = _real_matrix(data["estimates"], "estimates")
    if estimates.shape[0] != elements.shape[0]:
        raise ValueError(f"estimates: {estimates.shape[0]} rows for {elements.shape[0]} POVM elements")
    povm = DiscretePovm(elements=elements, estimates=estimates)
    validate_povm(povm)
    return povm
