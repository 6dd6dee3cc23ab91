"""One local analysis of a model: SLDs, information matrices, efficient operators.

:func:`analyze` computes, once per model, everything the three bounds
read: the eigendecomposition of rho and its support/kernel split, the
symmetric logarithmic derivatives, J = Re Z(L) and D = Im Z(L), the rank
and pseudoinverse of J, and the efficient influence operators
(dbeta)ᵀ J⁺ L.  Every rank decision — rho's support, the SLD kernel
block, the rank of J and the feasibility verdict — is taken with the one
relative ``rank_tol`` it is given.

The Lyapunov equation drho_j = rho ∘ L_j is solved in the eigenbasis of
rho; on rank-deficient states the kernel×kernel block of L_j is set to
zero (minimum-norm representative of the SLD equivalence class).  Every
downstream bound is invariant to that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import InfeasibleModel, KernelBlockDerivative, ModelError, ResidualTooLarge
from .model import QuantumModel

__all__ = [
    "ModelAnalysis",
    "analyze",
    "compute_slds",
    "information",
    "infeasible_columns",
]

RESIDUAL_TOL = 1e-8
FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class ModelAnalysis:
    """Everything the bounds need from one model, decided with one ``rank_tol``.

    ``rho`` is the exactly Hermitized density matrix; ``eigvals``/``eigvecs``
    its ascending eigendecomposition and ``support`` the mask of eigenvalues
    above ``rank_tol`` times the largest.  ``slds`` (p, d, d) carry their
    reconstruction ``residuals``; ``qfim`` = J is symmetric and ``dmat`` = D
    antisymmetric to the bit.  ``x_eff`` (q, d, d) are the efficient
    influence operators, ``z_eff`` = Z(X_eff) and ``root_weight`` = √W.
    Only estimable models have an analysis (:func:`analyze` raises
    otherwise), so no consumer checks feasibility again.
    """

    model: QuantumModel
    rho: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    support: np.ndarray
    slds: np.ndarray
    residuals: np.ndarray
    qfim: np.ndarray
    dmat: np.ndarray
    qfim_rank: int
    qfim_pinv: np.ndarray
    x_eff: np.ndarray
    z_eff: np.ndarray
    root_weight: np.ndarray


def compute_slds(rho: np.ndarray, drho: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray,
                 support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve drho_j = rho ∘ L_j for every parameter; returns (slds, residuals).

    In the eigenbasis of rho, (L_j)_ab = 2 (drho_j)_ab / (λ_a + λ_b) on every
    pair touching the ``support`` and 0 on the kernel×kernel block.  Raises
    :class:`ResidualTooLarge` when the reconstruction ‖rho ∘ L_j − drho_j‖_F
    exceeds ``RESIDUAL_TOL`` (content the kernel-block check of
    :func:`analyze` let through).
    """
    pair_sums = eigvals[:, None] + eigvals[None, :]
    inv_pairs = np.zeros_like(pair_sums)
    np.divide(2.0, pair_sums, out=inv_pairs, where=support[:, None] | support[None, :])

    slds = []
    residuals = []
    for j, dj in enumerate(np.asarray(drho, dtype=complex)):
        # entries near the float limit overflow here; the non-finite SLD is
        # rejected, naming drho, by :func:`information`
        with np.errstate(over="ignore", invalid="ignore"):
            dj_eig = eigvecs.conj().T @ dj @ eigvecs
            l_eig = dj_eig * inv_pairs
            lj = linalg.hermitian_part(eigvecs @ l_eig @ eigvecs.conj().T)
        res = np.linalg.norm(linalg.jordan_product(rho, lj) - dj)
        if res > RESIDUAL_TOL:
            raise ResidualTooLarge(
                f"SLD equation for parameter {j} left residual {res:.3e} > {RESIDUAL_TOL:.1e}"
            )
        slds.append(lj)
        residuals.append(res)
    return np.array(slds), np.array(residuals)


def information(slds: np.ndarray, rho: np.ndarray,
                rank_tol: float = linalg.DEFAULT_RANK_TOL) -> tuple[np.ndarray, np.ndarray, int]:
    """Information matrices from the SLDs: returns (J, D, rank of J).

    J = Re Z(L) is symmetrized and D = Im Z(L) antisymmetrized exactly, so
    downstream code can rely on J = Jᵀ and D = −Dᵀ holding to the bit.
    Raises :class:`ModelError` when Z(L) overflows (derivative entries too
    large to square).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = linalg.z_matrix(slds, rho)
    if not np.isfinite(z).all():
        raise ModelError("drho: the information matrix Z(L) is not finite (derivative entries too large)")
    j = (z.real + z.real.T) / 2
    d = (z.imag - z.imag.T) / 2
    w = np.linalg.eigvalsh(j)
    rank = int(np.count_nonzero(np.abs(w) > rank_tol * max(np.abs(w).max(), 1e-300)))
    return j, d, rank


def infeasible_columns(qfim: np.ndarray, qfim_pinv: np.ndarray, dbeta: np.ndarray) -> list[int]:
    """Indices of dbeta columns outside the range of J (empty iff estimable).

    Column s fails when ‖(J J⁺ dbeta − dbeta)[:, s]‖_max > ``FEASIBILITY_TOL``;
    then no influence operators satisfy the unbiasedness constraints and
    target component s carries unbounded variance.
    """
    dbeta = np.asarray(dbeta, dtype=float)
    if dbeta.shape[0] != qfim.shape[0]:
        raise ValueError(f"dbeta has {dbeta.shape[0]} rows, J is {qfim.shape[0]}×{qfim.shape[1]}")
    dev = np.abs(qfim @ qfim_pinv @ dbeta - dbeta)
    return [s for s in range(dbeta.shape[1]) if dev[:, s].max() > FEASIBILITY_TOL]


def analyze(model: QuantumModel, rank_tol: float = linalg.DEFAULT_RANK_TOL) -> ModelAnalysis:
    """Analyse ``model`` once, taking every rank decision with ``rank_tol``.

    Raises :class:`KernelBlockDerivative` when a derivative has content in
    the kernel×kernel block of rho (the rank of rho is not locally fixed),
    :class:`ResidualTooLarge` when an SLD equation is left unsolved, and
    :class:`InfeasibleModel` naming the dbeta columns that leave the range
    of J.
    """
    rho = linalg.hermitian_part(np.asarray(model.rho, dtype=complex))
    eigvals, eigvecs = np.linalg.eigh(rho)
    support = eigvals > rank_tol * max(eigvals.max(), 1e-300)
    kernel = eigvecs[:, ~support]
    for j, dj in enumerate(np.asarray(model.drho, dtype=complex)):
        block = kernel.conj().T @ dj @ kernel
        if block.size and np.abs(block).max() > rank_tol * max(1.0, np.abs(dj).max()):
            raise KernelBlockDerivative(
                f"drho[{j}] has kernel-block content {np.abs(block).max():.3e}; "
                "the SLD equation is unsolvable there (rank of rho not locally fixed)"
            )
    slds, residuals = compute_slds(rho, model.drho, eigvals, eigvecs, support)
    qfim, dmat, qfim_rank = information(slds, rho, rank_tol)
    qfim_pinv = linalg.pseudoinverse(qfim, rank_tol)
    bad = infeasible_columns(qfim, qfim_pinv, model.dbeta)
    if bad:
        raise InfeasibleModel(
            f"beta component(s) {bad} are not estimable (dbeta column outside range of J)",
            bad_columns=bad,
        )
    x_eff = np.tensordot((qfim_pinv @ model.dbeta).T, slds, axes=(1, 0))
    return ModelAnalysis(
        model=model,
        rho=rho,
        eigvals=eigvals,
        eigvecs=eigvecs,
        support=support,
        slds=slds,
        residuals=residuals,
        qfim=qfim,
        dmat=dmat,
        qfim_rank=qfim_rank,
        qfim_pinv=qfim_pinv,
        x_eff=x_eff,
        z_eff=linalg.z_matrix(x_eff, rho),
        root_weight=linalg.psd_sqrt(model.weight),
    )
