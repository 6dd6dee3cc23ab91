"""Hermitian matrix algebra shared by every bound computation.

All operators are plain complex numpy arrays; a "vector of operators" is an
array of shape ``(n, d, d)``.  Functions are pure and never mutate their
arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermitian_part",
    "require_hermitian",
    "z_matrix",
    "trace_norm",
    "symmetric_eigh",
    "pseudoinverse",
    "gell_mann_coefficients",
]

#: Relative tolerance used to accept a matrix as Hermitian.
HERMITICITY_TOL = 1e-12

#: Relative spectral cutoff below which eigenvalues count as zero.
DEFAULT_RANK_TOL = 1e-10


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2, halved before the sum so finite entries never overflow."""
    return a / 2 + a.conj().T / 2


def require_hermitian(a: np.ndarray, name: str = "matrix") -> None:
    """Raise ``ValueError`` unless ``a`` is square and Hermitian within
    ``HERMITICITY_TOL`` (relative).  A caller that decomposes ``a`` forms
    its :func:`hermitian_part` itself."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0) if a.size else 1.0
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > HERMITICITY_TOL * scale:
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e}, scale {scale:.3e})")


def z_matrix(x_ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Complex covariance matrix Z_st = Tr ρ X_s X_t of an operator vector.

    The result is Hermitian (enforced exactly) and positive semidefinite up
    to roundoff for Hermitian inputs.
    """
    x_ops = np.asarray(x_ops, dtype=complex)
    if x_ops.shape[-1] != rho.shape[-1]:
        raise ValueError("operator dimension does not match rho")
    # Tr(rho X_s X_t) = sum over entries of (rho X_s) * (X_t)^T
    z = ((rho @ x_ops)[:, None] * x_ops.transpose(0, 2, 1)[None]).sum(axis=(-2, -1))
    return hermitian_part(z)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ‖A‖₁ = sum of singular values."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).sum())


def symmetric_eigh(m: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigendecomposition of the real symmetric ``m``, symmetrized exactly first;
    ``ValueError`` when ``m`` is not square or not symmetric within ``HERMITICITY_TOL``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if np.abs(m - m.T).max() > HERMITICITY_TOL * max(np.abs(m).max(), 1.0):
        raise ValueError(f"{name} must be symmetric")
    return np.linalg.eigh((m + m.T) / 2)


def pseudoinverse(m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a real symmetric matrix.

    Eigendecomposition based: eigenvalues with |λ| ≤ ``rank_tol`` times the
    largest eigenvalue magnitude are treated as exact zeros.  Raises
    ``ValueError`` for a matrix that is not symmetric.
    """
    w, v = symmetric_eigh(m)
    inv_w = np.zeros_like(w)
    keep = np.abs(w) > rank_tol * (np.abs(w).max() if w.size else 1.0)
    inv_w[keep] = 1.0 / w[keep]
    out = (v * inv_w) @ v.T
    return (out + out.T) / 2


def gell_mann_coefficients(a: np.ndarray) -> np.ndarray:
    """Coordinates (..., d²) of Hermitian operators (..., d, d) in the generalized Gell-Mann basis.

    The basis, orthonormal under Tr(E_a E_b) = δ_ab, is never formed: each
    Tr(A E) is read off A's entries, in a fixed documented order: √2 Re A_ij
    for the symmetric pairs i < j (lexicographic), −√2 Im A_ij for the
    antisymmetric ones, (Σ_{k<l} A_kk − l A_ll)/√(l(l+1)) for the d − 1
    traceless diagonals, and tr A/√d for the identity last.
    """
    a = np.asarray(a, dtype=complex)
    i, j = np.triu_indices(a.shape[-1], 1)
    half = 1.0 / np.sqrt(2.0)
    diag = a.real.diagonal(axis1=-2, axis2=-1)
    partial, level = np.cumsum(diag, axis=-1), np.arange(1, diag.shape[-1])  # partial_l = Σ_{k ≤ l} A_kk
    # both triangles enter each pair term, as in Tr(A E); + 0.0 turns −0.0 into 0.0
    return np.concatenate([half * a[..., i, j].real + half * a[..., j, i].real,
                           half * a[..., j, i].imag - half * a[..., i, j].imag,
                           (partial[..., :-1] - level * diag[..., 1:]) / np.sqrt(level * (level + 1.0)),
                           partial[..., -1:] / np.sqrt(diag.shape[-1])], axis=-1) + 0.0
