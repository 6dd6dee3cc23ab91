"""Primal-dual interior-point solver for one Hermitian PSD block.

Solves the linear-matrix-inequality form

    minimize    c · u
    subject to  F(u) = F0 + Σ_i u_i F_i  ⪰ 0,

with u real and F0, F_i Hermitian N×N, together with its dual

    maximize   −⟨F0, S⟩   subject to   ⟨F_i, S⟩ = c_i,  S ⪰ 0.

The constraint matrices F_i are never stored.  The solver reaches them
through an operator, which lets the caller keep them in whatever factored
form their structure allows:

    apply(u)                    Σ_i u_i F_i                (N×N Hermitian)
    adjoint(T)                  (Re tr F_i T)_i            (n,)
    schur(G)                    [Re tr(G F_i G F_j)]_ij     (n×n), G Hermitian PD
    factor(X)                   (L, L⁻¹) with L Lᴴ = X     for a slack X ≻ 0
    factor_congruence(L, S)     Lᴴ·S·L                     for L from ``factor``
    times_factor_inv(A, L⁻¹)    A·L⁻¹                      for L⁻¹ from ``factor``
    congruence(A, T)            A·T·Aᴴ                     for T = apply(u)
    adjoint_congruence(A, Y)    adjoint(Aᴴ·Y·A)            for Hermitian Y
    scaled_extremes(L⁻¹, dX)    (λ_min, λ_max) of L⁻¹·dX·L⁻ᴴ
    q                           order of the block the structured methods
                                reduce their work to

The F_i must be linearly independent, so that ``schur`` of a positive
definite G is positive definite.  ``factor`` raises ``LinAlgError`` when
X is not positive definite.  ``scaled_extremes`` may count among the
eigenvalues a value that changes no step length read from them: the
primal step −1/λ_min and the predictor's dual step 1/(1 + λ_max) when
λ_max > 0, else 1.  ``factor`` and ``scaled_extremes`` are handed only
slacks X = F(u) and directions dX = Σ_i du_i F_i.  The methods
from ``factor`` on are used only on blocks of at least
``_STRUCTURED_MIN + _STRUCTURED_PER_TARGET·q`` rows; a smaller block takes
their dense forms (:class:`_DenseForms`), and its step lengths from the
eigenvalues in the scaled coordinates, which costs less there than a
structured form whose fixed cost grows with q.  The Holevo operator
(:class:`qcrb.holevo.EpigraphOperator`) keeps F(u) an arrow that touches
only q rows and columns besides a constant block, so each of its products
costs O(N²q) where the dense form costs O(N³).

The caller supplies a strictly feasible start, F(u0) ≻ 0 and S0 ≻ 0;
every step keeps the slack X = F(u) inside the cone, so no slack is
carried beside u and there is no primal residual.  A start that is not
strictly feasible ends ``NumericalTrouble`` at 0 iterations, decided by
the factor of X that the first step needs anyway or by the Nesterov-Todd
eigenvalues.  F0 is made Hermitian once, so every slack is exactly Hermitian.

The iteration is the standard Nesterov-Todd-scaled Mehrotra
predictor-corrector.  The scaling point R comes from one Hermitian
eigendecomposition LxᴴSLx = VΛ²Vᴴ of the dual S in the coordinates of
the slack factor, R⁻¹ = Λ^½VᴴLx⁻¹, which makes R⁻¹XR⁻ᴴ = RᴴSR = Λ
(:func:`_nt_scaling`); the Newton system is reduced to the n×n Schur
complement ``schur(G)``, G = R⁻ᴴR⁻¹, in u.  Its Cholesky factor L and
L⁻¹ come together from one recursion (:func:`_cholesky_inverse`) that
splits the matrix in halves and forms both from a few large matrix
products, so each of the two solves per iteration is the pair of
products L⁻ᵀ(L⁻¹g); the same routine factors the slack on small blocks.
Scaled constraint matrices R⁻¹F_iR⁻ᴴ are never formed.  A slack
direction is dX = apply(du), so the scaled step is
R⁻¹·dX·R⁻ᴴ = ``congruence(R⁻¹, dX)``, and the corrector's
right-hand side is ``adjoint_congruence(R⁻¹, Y)`` = adjoint(R⁻ᴴ·Y·R⁻¹).
The predictor's Y = −Λ needs neither: R⁻ᴴ(−Λ)R⁻¹ = −S, so its
right-hand side is −c.  Its dual direction is −Λ − R⁻¹·dX·R⁻ᴴ, so both
predictor step lengths follow from the extremes of L⁻¹·dX·L⁻ᴴ, to which
Λ^-½·R⁻¹·dX·R⁻ᴴ·Λ^-½ is unitarily similar.  The dual step lifts the difference,
R⁻ᴴ·(Y − R⁻¹·dX·R⁻ᴴ)·R⁻¹: near the optimum the two terms nearly cancel,
and lifting them apart as R⁻ᴴYR⁻¹ − G·dX·G would cost S digits.

Per iteration, on the structured route, the solver itself forms four N×N
products (G, the corrector's second-order term and the two of the dual
step) and runs one ``eigh``
(the NT scaling) and one ``eigvalsh`` (the corrector's dual step); the
operator's products cost O(N²q) each.  The Schur factorization takes
about 7n³/6 flops, all but the leaves' in matrix products.  The operator
calls are three ``apply``, one ``adjoint``, one ``adjoint_congruence``,
one ``schur``, one ``factor``, ``factor_congruence`` and
``times_factor_inv`` each, two ``congruence`` and two
``scaled_extremes``; the iterate that ends the solve is factored too,
since X ≻ 0 is decided before an iterate may count as optimal.  A small
block runs all of these as dense products, with two more ``eigvalsh`` in
place of ``scaled_extremes``.

Accuracy of the scaling: the eigendecomposition of LxᴴSLx resolves Λ²,
whose spread is the square of the NT spread, where an SVD of LzᴴLx
(Lz a Cholesky factor of S) resolves Λ itself.  Near the end of a solve
the spread grows as the complementary eigenvalues part; at a spread of
1e7 on N = 103, RᴴSR = Λ holds to about 2.5e-10 of λ_max, against
1.5e-14 through the SVD, while R⁻¹XR⁻ᴴ = Λ holds to roundoff in both.  Every
benchmark solve takes the same iterations either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SdpResult", "solve_lmi"]

OPTIMAL = "Optimal"
MAX_ITERATIONS = "MaxIterations"
NUMERICAL_TROUBLE = "NumericalTrouble"

#: Reasons a solve ends in ``NumericalTrouble``.
SLACK_CHOLESKY = "slack Cholesky failed"
NT_EIGENVALUE = "non-positive Nesterov-Todd eigenvalue"
SCHUR_CHOLESKY = "Schur Cholesky failed after regularisation"
STALL = "steps stalled"

#: Scaled primal and dual residual norms at which an iterate counts as feasible.
FEAS_TOL = 1e-8

_STEP_DAMPING = 0.98
_MIN_STEP = 1e-10
#: Largest block :func:`_cholesky_inverse` hands to ``np.linalg.cholesky`` and ``np.linalg.inv``.
_TRI_LEAF = 48
#: The operator's ``factor`` and ``scaled_extremes`` are used on blocks of at
#: least ``_STRUCTURED_MIN + _STRUCTURED_PER_TARGET·q`` rows.  Below that a
#: dense Cholesky factorization and the eigenvalues in the scaled coordinates
#: cost less than the many small products of a structured form, whose 2q
#: companion eigenproblem grows with q.
_STRUCTURED_MIN = 20
_STRUCTURED_PER_TARGET = 2.5


@dataclass
class SdpResult:
    """Solver outcome.

    ``gap`` is the absolute complementarity ⟨X, S⟩, ``relgap`` the gap
    relative to the mean objective magnitude; ``dinfeas`` is the scaled
    dual residual norm (the primal one is 0: X = F(u) at every iterate).
    ``dobj`` = −⟨F0, S⟩ is the dual
    objective at the returned dual iterate.  It is not a certified lower
    bound on the optimum, even with ``dinfeas`` at roundoff: S solves the
    dual constraints only approximately, and on the Holevo SDP of
    ``qubit_xy_at_z(0.5)`` with W = diag(1, 0) it reads 1.000000012 above
    the true optimum 1 at ``dinfeas`` 2.3e-16.  ``reason`` names what
    failed when ``status`` is ``NumericalTrouble`` and is empty otherwise:
    the slack's Cholesky factorization (X not positive definite), a
    non-positive eigenvalue of LxᴴSLx in the Nesterov-Todd scaling (S not
    positive definite), the Schur Cholesky factorization after
    regularisation, or steps that stalled.  A start that is not strictly
    feasible ends with the first or the second at 0 iterations, never
    ``Optimal``.
    """

    u: np.ndarray
    slack: np.ndarray
    dual: np.ndarray
    pobj: float
    dobj: float
    gap: float
    relgap: float
    dinfeas: float
    iterations: int
    status: str
    reason: str = ""


def _cholesky_inverse(mat: np.ndarray, low: np.ndarray | None = None,
                      low_inv: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(L, L⁻¹) with L Lᴴ = ``mat`` for a Hermitian positive definite matrix.

    Recursive 2×2 blocking: for mat = [[A, Bᴴ], [B, C]] with A = L₁L₁ᴴ and
    L₂₁ = B·L₁⁻ᴴ, L = [[L₁, 0], [L₂₁, L₂]] with L₂L₂ᴴ = C − L₂₁L₂₁ᴴ and
    L⁻¹ = [[L₁⁻¹, 0], [−L₂⁻¹L₂₁L₁⁻¹, L₂⁻¹]], so the factor and its inverse
    come from a few large matrix products; ``np.linalg.cholesky`` and
    ``np.linalg.inv`` run only on leaves of at most ``_TRI_LEAF`` rows.  The
    recursion writes into the blocks of ``low`` and ``low_inv``, which the
    outermost call allocates.  Reads the lower triangle of ``mat`` only, and
    raises ``LinAlgError`` when ``mat`` is not positive definite.
    """
    if low is None:
        low, low_inv = np.zeros_like(mat), np.zeros_like(mat)
    n = mat.shape[0]
    if n <= _TRI_LEAF:
        low[...] = np.linalg.cholesky(mat)
        low_inv[...] = np.linalg.inv(low)
        return low, low_inv
    h = n // 2
    _cholesky_inverse(mat[:h, :h], low[:h, :h], low_inv[:h, :h])
    l_b = np.matmul(mat[h:, :h], low_inv[:h, :h].conj().T, out=low[h:, :h])
    _cholesky_inverse(mat[h:, h:] - l_b @ l_b.conj().T, low[h:, h:], low_inv[h:, h:])
    off = np.matmul(low_inv[h:, h:], l_b @ low_inv[:h, :h], out=low_inv[h:, :h])
    np.negative(off, out=off)
    return low, low_inv


def _herm(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2


class _DenseForms:
    """The operator's ``factor``, ``factor_congruence``, ``times_factor_inv``,
    ``congruence`` and ``adjoint_congruence`` as plain dense products, for
    blocks below the structured threshold."""

    factor = staticmethod(_cholesky_inverse)

    def __init__(self, op):
        self.adjoint = op.adjoint

    @staticmethod
    def factor_congruence(low: np.ndarray, mat: np.ndarray) -> np.ndarray:
        return low.conj().T @ mat @ low

    @staticmethod
    def times_factor_inv(mat: np.ndarray, low_inv: np.ndarray) -> np.ndarray:
        return mat @ low_inv

    @staticmethod
    def congruence(a: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _herm(a @ t @ a.conj().T)

    def adjoint_congruence(self, a: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.adjoint(a.conj().T @ y @ a)


def _nt_scaling(forms, factor: tuple[np.ndarray, np.ndarray], dual: np.ndarray):
    """Nesterov-Todd scaling of the slack X = Lx·Lxᴴ and the dual S.

    ``factor`` is (Lx, Lx⁻¹) from ``forms.factor``, and ``forms`` the operator
    or :class:`_DenseForms`, whose ``factor_congruence`` and
    ``times_factor_inv`` form LxᴴSLx and Vᴴ·Lx⁻¹.  Returns (λ, R⁻¹) with
    R⁻¹XR⁻ᴴ = RᴴSR = diag(λ), or None when an eigenvalue of LxᴴSLx is not
    positive.  One Hermitian eigendecomposition LxᴴSLx = VΛ²Vᴴ gives
    R⁻¹ = Λ^½VᴴLx⁻¹: then R⁻¹XR⁻ᴴ = Λ, and RᴴSR = Λ^-½Vᴴ(LxᴴSLx)VΛ^-½ = Λ.
    """
    lx, lx_inv = factor
    lam_sq, vecs = np.linalg.eigh(forms.factor_congruence(lx, dual))  # reads the lower triangle
    if lam_sq[0] <= 0:
        return None
    lam = np.sqrt(lam_sq)
    return lam, np.sqrt(lam)[:, None] * forms.times_factor_inv(vecs.conj().T, lx_inv)


def _scaled_extremes(lam: np.ndarray, delta: np.ndarray) -> tuple[float, float]:
    """(λ_min, λ_max) of diag(lam)^-½ · delta · diag(lam)^-½ for Hermitian delta."""
    scale = 1.0 / np.sqrt(lam)
    eigs = np.linalg.eigvalsh(delta * np.outer(scale, scale))
    return float(eigs[0]), float(eigs[-1])


def _step_length(min_eig: float) -> float:
    """Largest alpha with I + alpha*K ⪰ 0 for λ_min(K) = ``min_eig`` (inf if unbounded)."""
    return np.inf if min_eig >= -1e-16 else -1.0 / min_eig


def _boundary_step(lam: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with diag(lam) + alpha*delta ⪰ 0 (inf if unbounded)."""
    return _step_length(_scaled_extremes(lam, delta)[0])


def solve_lmi(
    c: np.ndarray,
    f0: np.ndarray,
    op,
    u0: np.ndarray,
    s0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> SdpResult:
    """Run the interior-point iteration.

    Parameters
    ----------
    c : (n,) objective vector.
    f0 : (N, N) Hermitian constant term.
    op : the constraint matrices F_1 … F_n, as an object with the
        ``apply``/``adjoint``/``schur``/``factor``/``scaled_extremes``
        methods and the ``q`` attribute described in the module docstring.
    u0 : strictly feasible start, F(u0) ≻ 0.
    s0 : positive definite dual start.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be a non-negative integer, got {max_iter}")
    c = np.asarray(c, dtype=float)
    f0 = _herm(np.asarray(f0, dtype=complex))  # every slack F(u) is then exactly Hermitian
    n = c.shape[0]
    dim = f0.shape[0]
    forms = op if dim >= _STRUCTURED_MIN + _STRUCTURED_PER_TARGET * op.q else _DenseForms(op)

    u = np.array(u0, dtype=float)
    x = f0 + op.apply(u)
    dual = np.array(s0, dtype=complex)

    c_scale = 1.0 + np.linalg.norm(c)
    best = None
    best_score = np.inf
    status = MAX_ITERATIONS
    reason = ""
    stalls = 0

    for iteration in range(max_iter + 1):
        iterations = iteration
        rd = c - op.adjoint(dual)
        gap = float(np.vdot(dual, x).real)
        pobj = float(c @ u)
        dobj = -float(np.vdot(dual, f0).real)
        relgap = gap / max(1.0, (abs(pobj) + abs(dobj)) / 2)
        dinf = np.linalg.norm(rd) / c_scale
        score = max(dinf, relgap)
        if best is None or score < best_score:
            best_score = score
            best = (u, x, dual, pobj, dobj, gap, relgap, dinf)
        # X ≻ 0 is decided before the iterate may count as optimal, by the
        # factor the step needs
        try:
            factor = forms.factor(x)
        except np.linalg.LinAlgError:
            status, reason = NUMERICAL_TROUBLE, SLACK_CHOLESKY
            break
        if dinf <= FEAS_TOL and relgap <= tol:
            return SdpResult(u, x, dual, pobj, dobj, gap, relgap, dinf, iterations, OPTIMAL)
        if iteration == max_iter:
            break

        scaling = _nt_scaling(forms, factor, dual)
        if scaling is None:
            status, reason = NUMERICAL_TROUBLE, NT_EIGENVALUE
            break
        lam, r_inv = scaling
        r_inv_h = r_inv.conj().T
        g_mat = r_inv_h @ r_inv

        schur = op.schur(g_mat)  # the Cholesky factorization reads its lower triangle only
        reg = 0.0
        for _ in range(4):
            try:
                _, chol_inv = _cholesky_inverse(schur + reg * np.eye(n) if reg else schur)
                break
            except np.linalg.LinAlgError:
                reg = max(reg * 100, 1e-14 * max(schur.diagonal().max(), 1.0))
        else:
            status, reason = NUMERICAL_TROUBLE, SCHUR_CHOLESKY
            break

        def extremes(dx, dlam_x):
            """(λ_min, λ_max) of L⁻¹·dx·L⁻ᴴ, unitarily similar to Λ^-½·dlam_x·Λ^-½."""
            return op.scaled_extremes(factor[1], dx) if forms is op else _scaled_extremes(lam, dlam_x)

        def direction(g):
            """schur⁻¹g = L⁻ᵀ(L⁻¹g), the slack direction apply(du) and its scaled form."""
            du = chol_inv.T @ (chol_inv @ g)
            dx = op.apply(du)
            return du, dx, forms.congruence(r_inv, dx)

        mu = gap / dim
        lam_mat = np.diag(lam)

        # predictor: Y = −Λ, whose right-hand side R⁻ᴴ(−Λ)R⁻¹ = −S cancels the
        # adjoint(S) in rd.  Its dual direction is −Λ − dlx_aff, so
        # Λ^-½(Λ + α·dlz_aff)Λ^-½ = (1 − α)I − αK with K = Λ^-½·dlx_aff·Λ^-½,
        # and both step lengths follow from K's extreme eigenvalues.
        _, dx_aff, dlx_aff = direction(-c)
        dlz_aff = -lam_mat - dlx_aff
        k_min, k_max = extremes(dx_aff, dlx_aff)
        ap_aff = min(1.0, _step_length(k_min))
        ad_aff = 1.0 / (1.0 + k_max) if k_max > 0 else 1.0
        # tr(AB) as the elementwise sum of A∘Bᵀ
        gap_aff = float(
            np.einsum("ij,ji->", lam_mat + ap_aff * dlx_aff, lam_mat + ad_aff * dlz_aff).real
        )
        sigma = min(1.0, max(0.0, (gap_aff / gap) ** 3))

        # corrector; both directions are Hermitian, so dlz·dlx = (dlx·dlz)ᴴ
        correction = _herm(dlx_aff @ dlz_aff)
        rhs = np.diag(sigma * mu - lam * lam) - correction
        y_comb = 2.0 * rhs / (lam[:, None] + lam[None, :])  # exactly Hermitian
        du, dx, dlam_x = direction(forms.adjoint_congruence(r_inv, y_comb) - rd)
        dlam_z = y_comb - dlam_x

        alpha_p = min(1.0, _STEP_DAMPING * _step_length(extremes(dx, dlam_x)[0]))
        alpha_d = min(1.0, _STEP_DAMPING * _boundary_step(lam, dlam_z))
        if alpha_p < _MIN_STEP and alpha_d < _MIN_STEP:
            stalls += 1
            if stalls >= 3:
                status, reason = NUMERICAL_TROUBLE, STALL
                break
        else:
            stalls = 0

        u = u + alpha_p * du
        x = f0 + op.apply(u)
        dual = _herm(dual + alpha_d * (r_inv_h @ dlam_z @ r_inv))

    # not Optimal: fall back to the best iterate seen
    return SdpResult(*best, iterations, status, reason)
