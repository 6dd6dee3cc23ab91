"""Shared random-instance generators and reference formulas for the test suite.

Models are built so that validity is guaranteed by construction:
derivatives are produced as drho = rho ∘ H with zero-mean Hermitian H,
which is traceless, carries no kernel×kernel content for any rank of rho,
and makes H itself an exact SLD representative.  The matrix inequalities,
the classical information matrix of a POVM and the general-dyne density
that the tests check the theory with, and that the package itself never
evaluates, live here too.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from qcrb import linalg
from qcrb.exceptions import InfeasibleModel, ModelError
from qcrb.gaussian import GaussianShiftModel
from qcrb.model import QuantumModel, fixture
from qcrb.povm import DiscretePovm, born_probs
from qcrb.sld import analyze, decide_qfim


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def jordan_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetrized product (AB + BA)/2 of two same-dimension operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    _check_same_dim(a, b)
    return (a @ b + b @ a) / 2


def gell_mann_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d×d Hermitian matrices, shape (d², d, d), built matrix by matrix.

    Generalized Gell-Mann construction under Tr(E_a E_b) = δ_ab, in the
    order :func:`qcrb.linalg.gell_mann_coefficients` documents: symmetric
    pairs (i < j, lexicographic), antisymmetric pairs, the d − 1 traceless
    diagonals, and the scaled identity last.
    """
    basis = []
    for imag in (False, True):
        for i in range(d):
            for j in range(i + 1, d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j], e[j, i] = (-1j, 1j) if imag else (1.0, 1.0)
                basis.append(e / np.sqrt(2.0))
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l], diag[l] = 1.0, -float(l)
        basis.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    basis.append(np.eye(d, dtype=complex) / np.sqrt(d))
    return np.array(basis)


def sld_oracle(model: QuantumModel) -> np.ndarray:
    """The SLDs (p, d, d) of ``model`` in its original frame, without rho's eigenbasis.

    Each L_j is the minimum-norm least-squares solution of
    (ρ⊗I + I⊗ρᵀ)/2 · vec L_j = vec drho_j (row-major vec), singular values
    below 1e-10 of the largest cut, then Hermitized: the minimum-norm
    representative :func:`qcrb.sld.compute_slds` forms in the eigenbasis.
    """
    rho, d = np.asarray(model.rho, dtype=complex), model.dim
    superop = (np.kron(rho, np.eye(d)) + np.kron(np.eye(d), rho.T)) / 2
    drho = np.asarray(model.drho, dtype=complex).reshape(-1, d * d)
    slds = np.linalg.lstsq(superop, drho.T, rcond=1e-10)[0].T.reshape(-1, d, d)
    return slds / 2 + slds.conj().transpose(0, 2, 1) / 2


def information_oracle(model: QuantumModel) -> tuple[np.ndarray, np.ndarray]:
    """(J, D) of ``model`` from :func:`sld_oracle`, Z_st = Tr ρ L_s L_t summed entry by entry."""
    slds = sld_oracle(model)
    z = np.einsum("ab,sbc,tca->st", np.asarray(model.rho, dtype=complex), slds, slds)
    return z.real, z.imag


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return linalg.hermitian_part(rho)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return linalg.hermitian_part(h)


def zero_mean_hermitian(rng: np.random.Generator, d: int, rho: np.ndarray) -> np.ndarray:
    h = random_hermitian(rng, d)
    return h - np.trace(rho @ h).real * np.eye(d)


def random_weight(rng: np.random.Generator, q: int) -> np.ndarray:
    g = rng.normal(size=(q, q))
    return g @ g.T + 0.1 * np.eye(q)


def rotated_weight(small: float, angle: float) -> np.ndarray:
    """W = R diag(1, ``small``) Rᵀ, R the plane rotation by ``angle``."""
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return rot @ np.diag([1.0, small]) @ rot.T


def truncated_j_model(weight: np.ndarray, small: float = 1e-2) -> QuantumModel:
    """``random_full_rank`` 3,3,3,2 with drho[2] = 0.7 drho[0] − 0.4 drho[1]
    + ``small``·drho[2], which puts J's eigenvalues at 8.8e-6 : 0.16 : 1 (at
    ``small`` = 1e-2), dbeta on the top two eigenvectors of J and the given
    2×2 ``weight``.  Analysed at ``rank_tol`` 1e-3, J's cut drops an
    eigenvalue above roundoff.  That drops no unbiasedness constraint: every
    route keeps J's range above roundoff, and the model stays on the short
    cut or the dual (only q = 1 and dual hand-backs reach the SDP)."""
    model = fixture("random_full_rank", [3, 3, 3, 2])
    drho = np.array(model.drho)
    drho[2] = 0.7 * drho[0] - 0.4 * drho[1] + small * drho[2]
    _, vecs = np.linalg.eigh(analyze(dataclasses.replace(model, drho=drho, dbeta=np.zeros((3, 1)))).qfim)
    return dataclasses.replace(model, drho=drho, dbeta=vecs[:, 1:], weight=weight)


def random_truncated_j_models(count: int):
    """``count`` pairs (model, rank_tol), drawn in turn from one
    ``default_rng(5)``: ``random_model`` d = p = q = 3 with drho[2] replaced by
    0.7 drho[0] − 0.4 drho[1] + 10^U(−4, −2)·drho[2], dbeta on J's top two
    eigenvectors and W the top-left 2×2 block of the drawn one.  ``rank_tol``
    is the geometric mean of J's smallest eigenvalue ratio and the smaller of
    J's next one and rho's smallest, so it drops J's smallest eigenvalue,
    which lies above roundoff, and nothing else."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        model = random_model(rng, 3, 3, 3)
        drho = np.array(model.drho)
        drho[2] = 0.7 * drho[0] - 0.4 * drho[1] + 10 ** rng.uniform(-4, -2) * drho[2]
        model = dataclasses.replace(model, drho=drho, dbeta=np.zeros((3, 1)))
        vals, vecs = np.linalg.eigh(analyze(model).qfim)
        upper = min(vals[1] / vals[2], model.rho_eig[0][0] / model.rho_eig[0][-1])
        yield (dataclasses.replace(model, dbeta=vecs[:, 1:], weight=model.weight[:2, :2]),
               float(np.sqrt(vals[0] / vals[2] * upper)))


def singular_weight_models():
    """40 pairs (full, reduced, rank): a random d = 3, p = q = 3 model with
    W = U₊ diag(w₊) U₊ᵀ of rank 1 or 2 in a random frame, and the same
    model reduced to range(W), (dbeta U₊, diag(w₊))."""
    rng = np.random.default_rng(17)
    for i in range(40):
        model = random_model(rng, d=3, p=3, q=3)
        rank = 1 + i % 2
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        w_plus = rng.uniform(0.5, 2.0, size=rank)
        yield (dataclasses.replace(model, weight=(rot[:, :rank] * w_plus) @ rot[:, :rank].T),
               dataclasses.replace(model, dbeta=model.dbeta @ rot[:, :rank], weight=np.diag(w_plus)), rank)


def random_model(
    rng: np.random.Generator,
    d: int,
    p: int,
    q: int,
    rank: int | None = None,
    singular_j: bool = False,
    weighted: bool = False,
) -> QuantumModel:
    """Random valid feasible model.

    With ``singular_j`` the last derivative is a linear combination of the
    others (J becomes singular) and dbeta is drawn from the range of J, so
    the model stays feasible; requires q < p.  Instances whose feasibility
    is numerically borderline (rank-cutoff straddling) are resampled.
    """
    if singular_j and (p < 2 or q >= p):
        raise ValueError("singular_j construction needs q < p and p >= 2")

    for _ in range(50):
        rho = random_density(rng, d, rank)
        seeds = [zero_mean_hermitian(rng, d, rho) for _ in range(p)]
        if singular_j:
            coeffs = rng.normal(size=p - 1)
            seeds[-1] = sum(c * h for c, h in zip(coeffs, seeds[:-1]))
        drho = np.array([jordan_product(rho, h) for h in seeds])
        model = QuantumModel(
            dim=d,
            rho=rho,
            drho=drho,
            dbeta=np.zeros((p, q)),
            weight=np.eye(q),
            label=f"random(d={d},p={p},q={q})",
        )
        analysis = analyze(model)
        if singular_j:
            dbeta = analysis.qfim @ rng.normal(size=(p, q))
        else:
            dbeta = rng.normal(size=(p, q))
        svals = np.linalg.svd(dbeta, compute_uv=False)
        if svals.min() <= 1e-8 * svals.max():
            continue
        try:
            decide_qfim(linalg.symmetric_eigh(analysis.qfim), dbeta)
        except InfeasibleModel:
            continue
        weight = random_weight(rng, q) if weighted else np.eye(q)
        return QuantumModel(dim=d, rho=rho, drho=drho, dbeta=dbeta, weight=weight,
                            label=model.label)
    raise RuntimeError(f"could not sample a feasible model for d={d}, p={p}, q={q}")


class DenseOperator:
    """The constraint matrices of :func:`qcrb.sdp.solve_lmi` held as a dense
    (n, N, N) array: the reference the structured operators are checked
    against, and the operator of the generic LMIs in the tests.  ``q`` is
    the order of the structured operator it stands in for, so that
    :func:`qcrb.sdp.solve_lmi` picks the same route for both."""

    def __init__(self, fs: np.ndarray, q: int = 0):
        self.fs = np.asarray(fs, dtype=complex)
        self.n = self.fs.shape[0]
        self.q = q

    def apply(self, u: np.ndarray) -> np.ndarray:
        return np.tensordot(u, self.fs, axes=(0, 0))

    def adjoint(self, mat: np.ndarray) -> np.ndarray:
        return np.einsum("iab,ba->i", self.fs, mat).real

    def schur(self, g: np.ndarray) -> np.ndarray:
        gf = g @ self.fs  # (n, N, N): G F_i
        return np.einsum("iab,jba->ij", gf, gf).real

    def factor(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        low = np.linalg.cholesky(x)
        return low, np.linalg.inv(low)

    def factor_congruence(self, low: np.ndarray, mat: np.ndarray) -> np.ndarray:
        return low.conj().T @ mat @ low

    def times_factor_inv(self, mat: np.ndarray, low_inv: np.ndarray) -> np.ndarray:
        return mat @ low_inv

    def congruence(self, a: np.ndarray, t: np.ndarray) -> np.ndarray:
        return a @ t @ a.conj().T

    def adjoint_congruence(self, a: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.adjoint(a.conj().T @ y @ a)

    def scaled_extremes(self, low_inv: np.ndarray, dx: np.ndarray) -> tuple[float, float]:
        """(λ_min, λ_max) of L⁻¹·dx·L⁻ᴴ."""
        scaled = low_inv @ dx @ low_inv.conj().T
        eigs = np.linalg.eigvalsh((scaled + scaled.conj().T) / 2)
        return float(eigs[0]), float(eigs[-1])


def epigraph_matrices(q: int, cols: np.ndarray) -> np.ndarray:
    """Dense constraint matrices of the Holevo epigraph LMI, written out one
    by one: symmetric units of the q×q block for the upper triangle of V,
    then for each target s and column c of ``cols`` the pair c / cᴴ in
    column / row s below / beside that block."""
    d_r, m = cols.shape
    v_index = [(a, b) for a in range(q) for b in range(a, q)]
    fs = np.zeros((len(v_index) + q * m, q + d_r, q + d_r), dtype=complex)
    for i, (a, b) in enumerate(v_index):
        fs[i, a, b] = 1.0
        fs[i, b, a] = 1.0
    for s in range(q):
        for l in range(m):
            i = len(v_index) + s * m + l
            fs[i, q:, s] = cols[:, l]
            fs[i, s, q:] = cols[:, l].conj()
    return fs


def random_povm(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Random informationally complete POVM elements, shape (n, d, d)."""
    raw = []
    for _ in range(n):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return np.array([linalg.hermitian_part(inv_root @ a @ inv_root) for a in raw])


def locally_unbiased_povm(
    rng: np.random.Generator, model: QuantumModel, beta: np.ndarray, n: int | None = None
) -> DiscretePovm | None:
    """Attach minimum-norm locally unbiased estimates to a random POVM.

    Returns None when the sampled POVM cannot satisfy the constraints
    (rank-deficient design matrix); callers resample.
    """
    p, q = model.dbeta.shape
    n = n or max(model.dim * model.dim, p + 2)
    elements = random_povm(rng, model.dim, n)
    povm = DiscretePovm(elements=elements, estimates=np.zeros((n, q)))
    probs = born_probs(povm, model.rho)
    dprobs = np.array([[np.trace(dj @ m).real for m in elements] for dj in model.drho])
    design = np.vstack([probs, dprobs])  # (1+p, n)
    svals = np.linalg.svd(design, compute_uv=False)
    if svals.min() <= 1e-10 * svals.max():
        return None
    estimates = np.empty((n, q))
    for s in range(q):
        rhs = np.concatenate([[beta[s]], model.dbeta[:, s]])
        sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        residual = np.abs(design @ sol - rhs).max()
        if residual > 1e-10:
            return None
        estimates[:, s] = sol
    return DiscretePovm(elements=elements, estimates=estimates)


def povm_doc(povm: DiscretePovm) -> dict:
    """The POVM file of ``povm`` in the documented layout, complex entries as [re, im] pairs."""
    elements = np.asarray(povm.elements, dtype=complex)
    return {"dim": povm.dim, "elements": np.stack([elements.real, elements.imag], axis=-1).tolist(),
            "estimates": np.asarray(povm.estimates, dtype=float).tolist()}


ZERO_PROB = 1e-14
ZERO_PROB_DERIV = 1e-12


class IllDefinedFim(ModelError):
    """A zero-probability outcome carries a nonzero probability derivative."""


def povm_fim(povm: DiscretePovm, model: QuantumModel) -> np.ndarray:
    """Classical information matrix of the outcome distribution.

    Outcomes with p(x) ≤ 1e−14 contribute nothing, provided all their
    probability derivatives vanish too; otherwise the matrix entry would
    diverge and :class:`IllDefinedFim` is raised.
    """
    probs = born_probs(povm, model.rho)
    dprobs = np.array(
        [[np.trace(dj @ m).real for m in povm.elements] for dj in model.drho]
    )  # (p, n)
    p_dim = dprobs.shape[0]
    fim = np.zeros((p_dim, p_dim))
    for x in range(len(povm.elements)):
        if probs[x] <= ZERO_PROB:
            if np.abs(dprobs[:, x]).max() > ZERO_PROB_DERIV:
                raise IllDefinedFim(
                    f"outcome {x} has probability {probs[x]:.3e} but derivative "
                    f"{np.abs(dprobs[:, x]).max():.3e}"
                )
            continue
        fim += np.outer(dprobs[:, x], dprobs[:, x]) / probs[x]
    return (fim + fim.T) / 2


def psd_sqrt(w: np.ndarray, name: str = "weight") -> np.ndarray:
    """Spectral square root of a symmetric PSD matrix, clipping eigenvalues at 0.

    Raises ``ValueError`` when ``w`` is not symmetric or clearly not PSD
    (minimum eigenvalue below −1e−8 times the trace scale).
    """
    w = np.asarray(w, dtype=float)
    vals, vecs = linalg.symmetric_eigh(w, name)
    scale = max(float(np.trace(w)), float(np.abs(vals).max()) if vals.size else 0.0, 1e-300)
    if vals.min() < -1e-8 * scale:
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {vals.min():.3e})")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return (root + root.T) / 2


def holevo_objective(model: QuantumModel, x_ops: np.ndarray) -> float:
    """Nonsmooth Holevo objective tr W Re Z(X) + ‖√W Im Z(X) √W‖₁."""
    z = linalg.z_matrix(x_ops, model.rho)
    root_w = psd_sqrt(model.weight)
    return float(np.trace(model.weight @ z.real)) + linalg.trace_norm(root_w @ z.imag @ root_w)


def direct_holevo_oracle(model: QuantumModel, rng: np.random.Generator, n_starts: int = 8) -> float:
    """Multi-start direct minimization of the nonsmooth objective.

    Works on the influence-operator coefficients with the unbiasedness
    constraints eliminated exactly; relies on scipy's Nelder-Mead plus the
    convexity of the objective, independent of the SDP route.
    """
    from scipy.optimize import minimize

    basis = gell_mann_basis(model.dim)
    rows = [np.array([np.trace(model.rho @ e).real for e in basis])]
    for dj in model.drho:
        rows.append(np.array([np.trace(dj @ e).real for e in basis]))
    a_mat = np.array(rows)
    q = model.n_targets
    rhs = np.vstack([np.zeros(q), model.dbeta])
    x0 = np.linalg.lstsq(a_mat, rhs, rcond=None)[0].T  # (q, n_b) particular solution
    svals = np.linalg.svd(a_mat, compute_uv=False)
    rank = int(np.count_nonzero(svals > 1e-12 * svals.max()))
    nullspace = np.linalg.svd(a_mat, full_matrices=True)[2][rank:].T  # (n_b, m)
    m = nullspace.shape[1]

    def objective(y: np.ndarray) -> float:
        coeffs = x0 + (y.reshape(q, m) @ nullspace.T if m else 0.0)
        x_ops = np.tensordot(coeffs, basis, axes=(1, 0))
        return holevo_objective(model, x_ops)

    if m == 0:
        return objective(np.zeros(0))
    best = np.inf
    starts = [np.zeros(q * m)] + [rng.normal(scale=s, size=q * m) for s in (0.3, 1.0)] + [
        rng.normal(size=q * m) for _ in range(n_starts - 3)
    ]
    for start in starts:
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 40000})
        best = min(best, res.fun)
        # polish from the incumbent
        res = minimize(objective, res.x, method="Nelder-Mead",
                       options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 20000, "maxfev": 40000})
        best = min(best, res.fun)
    return float(best)


def random_physical_cm(rng: np.random.Generator, k: int, noisy: bool = True) -> np.ndarray:
    """Random physical covariance matrix: S Sᵀ for symplectic S, plus noise."""
    from scipy.linalg import expm

    from qcrb.gaussian import symplectic_form

    a = rng.normal(scale=0.4, size=(2 * k, 2 * k))
    a = (a + a.T) / 2
    s = expm(symplectic_form(k) @ a)
    cm = s @ s.T
    if noisy:
        g = rng.normal(scale=0.5, size=(2 * k, 2 * k))
        cm = cm + g @ g.T
    return (cm + cm.T) / 2


def v_matrix(x_ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Real covariance matrix V = Re Z; symmetric PSD up to roundoff."""
    z = linalg.z_matrix(x_ops, rho)
    v = z.real
    return (v + v.T) / 2


def belavkin_grishanin_gap(a: np.ndarray) -> float:
    """tr Re A − ‖Im A‖₁ for a Hermitian PSD matrix A; nonnegative up to roundoff.

    Raises ``ValueError`` when A fails the PSD check (minimum eigenvalue
    below −1e−8 · tr A).
    """
    linalg.require_hermitian(a, "matrix")
    a = linalg.hermitian_part(np.asarray(a, dtype=complex))
    w = np.linalg.eigvalsh(a)
    tr = float(np.trace(a).real)
    if w.size and w.min() < -1e-8 * tr:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})")
    return float(np.trace(a.real).real) - linalg.trace_norm(a.imag)


def weighted_tracenorm_check(w: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """Evaluate both sides of ‖√W A √W‖₁ ≤ ‖W A‖₁ for PSD W and skew-symmetric A.

    Returns ``(lhs, rhs)``; the inequality holds for all valid inputs.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got {a.shape}")
    if np.abs(a + a.T).max() > linalg.HERMITICITY_TOL * max(1.0, np.abs(a).max()):
        raise ValueError("A must be skew-symmetric")
    root = psd_sqrt(w, "W")
    lhs = linalg.trace_norm(root @ a @ root)
    rhs = linalg.trace_norm(np.asarray(w, dtype=float) @ a)
    return lhs, rhs


def generaldyne_logdensity(r_out: np.ndarray, model: GaussianShiftModel,
                           cm_m: np.ndarray) -> float:
    """Log of the general-dyne outcome density at ``r_out`` of the measurement σ_m = ``cm_m``."""
    total = np.asarray(model.cm, dtype=float) + np.asarray(cm_m, dtype=float)
    dev = np.asarray(r_out, dtype=float) - np.asarray(model.mean, dtype=float)
    if dev.shape != (2 * model.modes,):
        raise ValueError(f"outcome vector has shape {dev.shape}, expected ({2 * model.modes},)")
    quad = float(dev @ np.linalg.solve(total, dev))
    _, logdet = np.linalg.slogdet(total)
    return -quad - model.modes * np.log(np.pi) - 0.5 * float(logdet)
