"""One local analysis of a model: SLDs, information matrices, efficient operators.

:func:`analyze` computes, once per model and in one frame, rho's
eigenbasis, everything the three bounds read: the support/kernel split,
drho, the symmetric logarithmic derivatives, J = Re Z(L) and D = Im Z(L),
the one eigendecomposition of J and its one ``rank_tol`` cut
(:func:`decide_qfim`: J⁺ and the estimability verdict), the
weight factor R with W = RRᵀ, the efficient influence operators (dbeta)ᵀ J⁺ L,
which alone are rotated to the original frame, and how far the SLD span is from
being closed under the commutation superoperator 𝒟_ρ (which decides
whether c_h = c_d).  The eigendecompositions of rho and W are the model's
``rho_eig`` and ``weight_eig``, which :func:`qcrb.model.validate` has
already taken when the model came from a file.  Every rank decision —
rho's support, the SLD kernel block, the rank of J and the feasibility
verdict — is taken with the one relative ``rank_tol`` it is given; J's
range that the Holevo routes keep is cut at :data:`QFIM_ROUNDOFF_TOL`, and
W's one decision, the columns of R, at the roundoff cut q·eps·λ_max.
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
    "decide_qfim",
    "d_invariance_residual",
    "information",
]

RESIDUAL_TOL = 1e-8
FEASIBILITY_TOL = 1e-8
#: Eigenvalues of J at most this multiple of the largest are roundoff.
QFIM_ROUNDOFF_TOL = 1e-12


@dataclass(frozen=True)
class ModelAnalysis:
    """Everything the bounds need from one model, decided with one ``rank_tol``.

    ``eigvals``/``eigvecs`` are rho's ascending eigendecomposition (the
    model's read-only ``rho_eig``), ``support`` the mask of eigenvalues
    above ``rank_tol`` times the largest, and ``drho_eig`` is drho in that
    eigenbasis, the frame of the analysis.  No copy of rho, no SLD and no
    SLD residual is stored: rho is the model's, and :func:`compute_slds`
    forms the SLDs and residuals from ``drho_eig``.  ``qfim`` = J is
    symmetric and ``dmat`` = D antisymmetric to the bit.  ``qfim_range``
    holds J's eigenvectors above roundoff, every real direction of drho, and
    ``dbeta_range`` the coordinates of JJ⁺dbeta there: ``rank_tol`` drops no
    unbiasedness constraint, and only q = 1 and dual hand-backs reach the SDP.
    ``weight_factor`` is R = U₊ diag(√w₊) (q × rank W) over W's eigenvalues
    above roundoff (> q·eps·λ_max): W = RRᵀ up to roundoff, R's columns
    orthogonal; c_d, the short cut, the dual, the SDP and verification read it.
    ``x_eff`` (q, d, d) are the efficient influence operators in the original
    frame and ``d_invariance_residual`` is :func:`d_invariance_residual` of the SLDs.
    Only estimable models have an analysis (:func:`analyze` raises
    otherwise), so no consumer checks feasibility again.
    """

    model: QuantumModel
    eigvals: np.ndarray
    eigvecs: np.ndarray
    support: np.ndarray
    drho_eig: np.ndarray
    qfim: np.ndarray
    dmat: np.ndarray
    qfim_range: np.ndarray
    dbeta_range: np.ndarray
    qfim_pinv: np.ndarray
    weight_factor: np.ndarray
    x_eff: np.ndarray
    d_invariance_residual: float


def _pair_weights(eigvals: np.ndarray, support: np.ndarray) -> np.ndarray:
    """2/(λ_a + λ_b) on every pair of rho's eigenbasis touching the ``support``, 0 elsewhere."""
    weights = np.zeros((eigvals.size, eigvals.size))
    np.divide(2.0, eigvals[:, None] + eigvals[None, :], out=weights, where=support[:, None] | support[None, :])
    return weights


def compute_slds(drho_eig: np.ndarray, eigvals: np.ndarray,
                 support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve drho_j = rho ∘ L_j in rho's eigenbasis; returns (slds_eig, residuals).

    There, where drho is ``drho_eig``, the Hermitian
    (L_j)_ab = 2 (drho_j)_ab / (λ_a + λ_b) on every pair touching the
    ``support``, and 0 on the kernel×kernel block: the minimum-norm
    representative of the SLD, to which no bound is sensitive.
    ``residuals`` are ‖((λ_a + λ_b)/2) L_ab − (drho_j)_ab‖_F, which is
    ‖rho ∘ L_j − drho_j‖_F in any frame; :func:`analyze` judges them.
    """
    # entries near the float limit overflow here; the non-finite SLD is
    # rejected, naming drho, by :func:`information`
    with np.errstate(over="ignore", invalid="ignore"):
        slds_eig = drho_eig * _pair_weights(eigvals, support)
        slds_eig = slds_eig / 2 + slds_eig.conj().transpose(0, 2, 1) / 2
        residuals = np.linalg.norm((eigvals[:, None] + eigvals) / 2 * slds_eig - drho_eig, axis=(1, 2))
    return slds_eig, residuals


def d_invariance_residual(slds_eig: np.ndarray, eigvals: np.ndarray, support: np.ndarray) -> float:
    """How far span_R{L_j} is from being closed under 𝒟_ρ, as one relative residual.

    In the eigenbasis of rho, where the SLDs are ``slds_eig``,
    (𝒟L)_ab = 2i (λ_b − λ_a)/(λ_a + λ_b) L_ab on
    every pair touching the ``support`` and 0 on the kernel×kernel block;
    𝒟L is the Hermitian solution of rho ∘ 𝒟L = i[L, rho].  Returns the
    largest, over j, of ‖𝒟L_j − P 𝒟L_j‖_F / ‖L_j‖_F, P being the real
    least-squares projection onto the span of the SLDs (0 for L_j = 0).
    The span is 𝒟-invariant exactly when this is 0.  The scale is ‖L_j‖,
    not ‖𝒟L_j‖, so that a commuting model written in another frame, whose
    𝒟L_j is roundoff, measures roundoff too.
    """
    p, dim = slds_eig.shape[0], eigvals.size
    if p == 0:
        return 0.0
    factor = (eigvals[None, :] - eigvals[:, None]) * _pair_weights(eigvals, support)
    span = np.ascontiguousarray(slds_eig).reshape(p, dim * dim).view(float).T  # real (2d², p)
    image = np.ascontiguousarray(1j * factor * slds_eig).reshape(p, dim * dim).view(float).T
    coef, *_ = np.linalg.lstsq(span, image, rcond=None)
    norms = np.linalg.norm(span, axis=0)
    misfit = np.linalg.norm(image - span @ coef, axis=0)
    return float(np.divide(misfit, norms, out=np.zeros(p), where=norms > 0).max())


def information(slds_eig: np.ndarray, eigvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Information matrices from the SLDs in rho's eigenbasis: returns (J, D).

    Z(L) is formed against diag(λ) over all of rho's ``eigvals``, the
    kernel's roundoff ones included, as Tr ρ L_s L_t reads them.  J = Re Z
    is symmetrized and D = Im Z antisymmetrized exactly, so downstream code
    can rely on J = Jᵀ and D = −Dᵀ holding to the bit.  Raises
    :class:`ModelError` when Z(L) overflows (derivative entries too large
    to square).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = linalg.z_matrix(slds_eig, np.diag(eigvals))
    if not np.isfinite(z).all():
        raise ModelError("drho: the information matrix Z(L) is not finite (derivative entries too large)")
    return (z.real + z.real.T) / 2, (z.imag - z.imag.T) / 2


def decide_qfim(j_eig: tuple, dbeta: np.ndarray,
                rank_tol: float = linalg.DEFAULT_RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """J's one ``rank_tol`` decision: returns (kept, J⁺).

    ``j_eig`` is J's :func:`qcrb.linalg.symmetric_eigh`; ``kept`` masks the
    eigenvalues with |λ| > ``rank_tol`` times the largest |λ|, and J⁺
    inverts those alone.  Raises :class:`InfeasibleModel` naming the dbeta
    columns s with ‖V_d V_dᵀ dbeta[:, s]‖_max > ``FEASIBILITY_TOL``, V_d
    holding the eigenvectors the cut drops: then no influence operators
    satisfy the unbiasedness constraints and target component s carries
    unbounded variance.  J J⁺ dbeta, whose roundoff grows as eps·cond(J),
    is not formed.
    """
    vals, vecs = j_eig
    dbeta = np.asarray(dbeta, dtype=float)
    if dbeta.shape[0] != vals.size:
        raise ValueError(f"dbeta has {dbeta.shape[0]} rows, J is {vals.size}×{vals.size}")
    kept = np.abs(vals) > rank_tol * max(np.abs(vals).max(initial=0.0), 1e-300)
    dev = np.abs(vecs[:, ~kept] @ (vecs[:, ~kept].T @ dbeta))
    bad = [s for s in range(dbeta.shape[1]) if dev[:, s].max() > FEASIBILITY_TOL]
    if bad:
        raise InfeasibleModel(
            f"beta component(s) {bad} are not estimable (dbeta column outside range of J)",
            bad_columns=bad,
        )
    pinv = (vecs * np.divide(1.0, vals, out=np.zeros_like(vals), where=kept)) @ vecs.T
    return kept, (pinv + pinv.T) / 2


def analyze(model: QuantumModel, rank_tol: float = linalg.DEFAULT_RANK_TOL) -> ModelAnalysis:
    """Analyse ``model`` once, taking every rank decision with ``rank_tol``.

    Raises :class:`KernelBlockDerivative` when a derivative has content in
    the kernel×kernel block of rho (the rank of rho is not locally fixed),
    :class:`ResidualTooLarge` when an SLD equation leaves a residual above
    ``RESIDUAL_TOL``, naming ``rank_tol`` and the support rank it kept when
    the cut dropped eigenvalues of rho, and max|drho_j| when it dropped
    none, and :class:`InfeasibleModel` naming the dbeta columns that leave
    the range of J (:func:`decide_qfim`).
    """
    eigvals, eigvecs = model.rho_eig
    support = eigvals > rank_tol * max(eigvals.max(), 1e-300)
    drho = np.asarray(model.drho, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected by :func:`information`
        drho_eig = eigvecs.conj().T @ drho @ eigvecs
    for j, (dj, block) in enumerate(zip(drho, drho_eig[:, ~support][:, :, ~support])):
        if block.size and np.abs(block).max() > rank_tol * max(1.0, np.abs(dj).max()):
            raise KernelBlockDerivative(
                f"drho[{j}] has kernel-block content {np.abs(block).max():.3e}; "
                "the SLD equation is unsolvable there (rank of rho not locally fixed)"
            )
    slds_eig, residuals = compute_slds(drho_eig, eigvals, support)
    failed = residuals > RESIDUAL_TOL
    if failed.any():
        j, rank = int(failed.argmax()), int(np.count_nonzero(support))  # the first
        cause = (f"rank_tol {float(rank_tol)!r} kept support rank {rank} of {eigvals.size}"
                 if rank < eigvals.size else
                 f"support rank {rank} of {rank}, no eigenvalue dropped; max|drho[{j}]| = {np.abs(drho[j]).max():.3e}")
        raise ResidualTooLarge(f"SLD equation for parameter {j} left residual {residuals[j]:.3e} "
                               f"> {RESIDUAL_TOL:.1e} ({cause})", support_rank=rank)
    qfim, dmat = information(slds_eig, eigvals)
    j_vals, j_vecs = j_eig = linalg.symmetric_eigh(qfim, "J")
    j_kept, qfim_pinv = decide_qfim(j_eig, model.dbeta, rank_tol)
    j_range = j_kept | (np.abs(j_vals) > QFIM_ROUNDOFF_TOL * max(np.abs(j_vals).max(), 1e-300))  # above roundoff
    w_vals, w_vecs = model.weight_eig
    # R drops only roundoff eigenvalues (numpy's matrix_rank cut); a larger
    # cut would drop terms of order √w from c_d
    kept = w_vals > w_vals.size * np.finfo(float).eps * w_vals.max()
    return ModelAnalysis(
        model=model,
        eigvals=eigvals,
        eigvecs=eigvecs,
        support=support,
        drho_eig=drho_eig,
        qfim=qfim,
        dmat=dmat,
        qfim_range=j_vecs[:, j_range],
        dbeta_range=np.where(j_kept[j_range, None], j_vecs[:, j_range].T @ model.dbeta, 0.0),  # 0 where J⁺ drops
        qfim_pinv=qfim_pinv,
        weight_factor=w_vecs[:, kept] * np.sqrt(w_vals[kept]),
        x_eff=eigvecs @ np.tensordot((qfim_pinv @ model.dbeta).T, slds_eig, axes=(1, 0)) @ eigvecs.conj().T,
        d_invariance_residual=d_invariance_residual(slds_eig, eigvals, support),
    )
