"""The Holevo bound: a semidefinite program over influence operators, and its dual.

The locally unbiased influence operators are X_s = X_eff,s + Σ_l y_sl D_l:
the efficient operators of the model's :class:`~qcrb.sld.ModelAnalysis`
plus any combination of feasible directions D_l, the Hermitian operators
orthogonal to rho and to every drho_j.  The SDP is assembled in rho's
eigenbasis, on the index pairs a ≤ b touching its support that the dual
below uses, so iterates stay feasible by construction; the minimizer is
rotated back once.  The kernel×kernel block is left out: it changes
neither X√ρ nor any constraint (drho carries no content there).  The
epigraph matrix V ⪰ Z(X) is imposed through the Schur-complement block

    [[V, M(y)†], [M(y), I]]  ⪰ 0,      M(y)† M(y) = Z(X),

where column s of M(y) holds the eigenbasis entries of X_s √ρ.  The
single PSD block goes to the interior-point core in :mod:`qcrb.sdp`, its
constraint matrices held by an :class:`EpigraphOperator` in factored form
rather than as a dense (n, N, N) array.

:func:`solve` reads everything it needs, J's range and W's factor
R = U₊ diag(√w₊) included, from the model's one analysis, which has
already decided that the model is estimable; no route reads W itself.
On every route the certificate is the unbiased minimizer ``x_opt``, and
:func:`verify_solution` recomputes the nonsmooth objective N(x_opt) from
the model and checks it against c_h and the closed-form bounds of
:func:`qcrb.bounds.sandwich`.

Short cut on D-invariant models.  At the efficient operators the Holevo
objective tr W Re Z + ‖√W Im Z √W‖₁ equals c_d.  When span_R{L_j} is
closed under the commutation superoperator 𝒟_ρ, X_eff is a minimizer and
c_h = c_d (Suzuki, J. Math. Phys. 57, 042201 (2016); Holevo, "Probabilistic
and Statistical Aspects of Quantum Theory").  For W ≻ 0 the pair
(X_eff, V) with

    V = Re Z + W^-½ |W^½ Im Z W^½| W^-½,       Z = Z(X_eff),

is a feasible point of the SDP of objective tr W V = c_d: V − Z =
W^-½ (|K| − iK) W^-½ with K = W^½ Im Z W^½, which is ⪰ 0 because iK is
Hermitian and |iK| = |K|.  A singular W = RRᵀ reduces to that case: every
bound reads X only through X̃ = XR, unbiased for ∂βR, so the bounds of
(∂β, W) are those of (∂βU₊, diag(w₊)), a model with the same SLDs, and
X̃ lifts back to the unbiased X = X̃R⁺ + X_eff(I − RR⁺) (:func:`_lift`).
The dual and the SDP solve that reduced model, whose weight w₊ > 0
penalizes V in every direction, where tr WV spares ker W.  A J whose small
eigenvalues ``rank_tol`` drops reduces to it too: every route solves
(JJ⁺∂β, W) with all of its constraints, and J⁻¹JJ⁺∂β = J⁺∂β, so X_eff is
that model's efficient operator.  :func:`solve`
returns c_d at X_eff, with no iteration, whenever the analysis's
``d_invariance_residual`` is at most :data:`D_INVARIANCE_TOL`.  The short
cut's ``dual_objective`` is c_d, the lower bound the theorem gives.

The dual over K.  The trace norm has the variational form
tr W Re Z + ‖√W Im Z √W‖₁ = max Re tr[(W + iK)Z], over the real
antisymmetric K = RARᵀ with ‖A‖ ≤ 1, that is W + iK ⪰ 0.  The objective
is convex in X and linear in K, and the K-set is compact and convex, so
Sion's minimax theorem (Pacific J. Math. 8, 171 (1958)) gives

    c_h = max_K f(K),      f(K) = min over unbiased X of Re tr[(W + iK)Z(X)],

a concave maximization over q′(q′−1)/2 numbers, q′ = rank W (none when
q′ ≤ 1).  f(0) = c_gs, attained at X_eff.  Every f(K) is a lower bound on
c_h and the nonsmooth objective at any unbiased X an upper bound, so
:func:`_solve_dual` climbs f by Newton's method and stops once the two
ends agree within ``tol`` relative.  Each
point is one evaluation of :class:`_Dual` on constants computed once per
model, and the Hessian reuses that point's 𝒥⁻¹ and minimizer.  The
certificate is the minimizer at the upper end; :func:`verify_solution`
recomputes Z(x_opt) from the model, so the check does not rest on the
solver's own Z.  Only q = 1 and dual hand-backs reach the SDP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, sdp
from .bounds import ClosedFormBounds
from .exceptions import VerificationFailed
from .povm import unbiasedness_residual
from .sld import ModelAnalysis

__all__ = ["EpigraphOperator", "HolevoSolution", "solve", "verify_solution"]

#: Relative tolerance of the objective and ordering checks of :func:`verify_solution`.
OBJECTIVE_TOL = 1e-7
#: Largest local-unbiasedness residual :func:`verify_solution` accepts.
CONSTRAINT_TOL = 1e-8
#: Largest ``d_invariance_residual`` at which :func:`solve` takes c_h = c_d.
#: A fixed constant, not the analysis's ``rank_tol``: invariant models
#: measure below 1e-13, and the others of the benchmark pool 8.8e-3 and up.
D_INVARIANCE_TOL = 1e-9

#: ``HolevoSolution.method`` of an interior-point solve, of the short cut
#: and of the Newton solve of the dual.
SDP = "sdp"
D_INVARIANT = "d_invariant"
DUAL = "dual"


@dataclass(frozen=True)
class HolevoSolution:
    """Solver outcome: the bound value and its certificate, the unbiased
    minimizer ``x_opt``, whose nonsmooth objective :func:`verify_solution`
    recomputes; ``reason`` says what failed when ``status`` is
    ``NumericalTrouble``, and ``method`` is :data:`SDP`, :data:`D_INVARIANT`
    (the short cut, 0 iterations) or :data:`DUAL` (Newton steps on f(K);
    ``dual_objective`` is the largest f met)."""

    c_h: float
    x_opt: np.ndarray
    duality_gap: float
    iterations: int
    status: str
    dual_objective: float
    reason: str = ""
    method: str = SDP


def _support_pairs(support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs a ≤ b of rho's eigenbasis that touch its ``support``, row-major."""
    index = np.arange(support.size)
    return np.nonzero((index[:, None] <= index) & (support[:, None] | support))


def _re_im(vec: np.ndarray) -> np.ndarray:
    """A contiguous complex vector as the rows [Re z, Im z] of a real (len, 2) array."""
    return vec.view(float).reshape(-1, 2)


class EpigraphOperator:
    """The constraint matrices F_i of the epigraph LMI, kept in factored form.

    The LMI variables are the upper triangle of V (a ≤ b, row-major)
    followed by the direction coordinates y[s, l], s-major.  Every F_i is
    an arrow e_t ĉ_kᴴ + ĉ_k e_tᴴ, halved when ĉ_k = e_t: e_t is a unit
    vector of the q×q block and ĉ_k a column of Ĉ = diag(I_q, C).  V entry
    (a, b) pairs t = a with ĉ = e_b; y[s, l] pairs t = s with column l of
    C (d·r × m), the eigenbasis entries of D_l √ρ.  With P = ĈᴴG[:, :q] and Q = ĈᴴGĈ,

        Re tr(G F_i G F_j) = 2 w_i w_j Re(P[k_i, t_j] P[k_j, t_i] + Q[k_i, k_j] G[t_j, t_i]),

    w being the halving weight, so the Schur complement costs
    O(N²m + N m² + n²) and no N×N matrix is formed per variable.  Only the
    q(q+1)/2 V rows are gathered entry by entry, from rows and columns of
    ĈᴴGĈ when :meth:`schur` runs, so the operator keeps no n_v × n table.
    On the x–x block, which is (q·m)², w = 1 and the formula splits into two
    real rank-2 products, an outer product of the entries of P_C = P[q:] and
    the Kronecker product of G_qqᵀ and Q_CC = Q[q:, q:], which are summed by
    one (q, m, q, m) broadcast.

    A slack of this LMI is X = [[V′, Mᴴ], [M, I]]: F0's lower-right block
    is I and no F_i touches it.  :meth:`factor` and
    :meth:`scaled_extremes` rest on that form, which reduces them to q×q work,
    and :meth:`factor_congruence` and :meth:`times_factor_inv` on the block
    form of its factor, which reduces products with it to O(N²q).  Every
    Σ u_i F_i touches only the first q rows and columns, so
    :meth:`congruence` with it costs O(N²q) too.  This is the operator
    :func:`qcrb.sdp.solve_lmi` takes.
    """

    def __init__(self, q: int, cols: np.ndarray):
        m = cols.shape[1]
        self.q = q
        self.cols = np.asarray(cols, dtype=complex)
        a, b = np.triu_indices(q)  # the V variables (a, b), a ≤ b, row-major
        self.t = np.concatenate([a, np.repeat(np.arange(q), m)])
        self.k = np.concatenate([b, q + np.tile(np.arange(m), q)])
        self.w = np.where(self.k == self.t, 0.5, 1.0)
        self.n = self.t.size
        self.n_v = a.size

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Σ_i u_i F_i."""
        q = self.q
        coef = np.zeros((q + self.cols.shape[1], q), dtype=complex)
        coef[self.k, self.t] = self.w * u
        out = np.zeros((q + self.cols.shape[0],) * 2, dtype=complex)
        out[:q, :q] = coef[:q]
        out[q:, :q] = self.cols @ coef[q:]
        return out + out.conj().T

    def adjoint(self, mat: np.ndarray) -> np.ndarray:
        """(Re tr F_i T)_i for T = ``mat``."""
        q = self.q
        left = np.vstack([mat[:q, :q], self.cols.conj().T @ mat[q:, :q]])  # Ĉᴴ T[:, :q]
        right = np.hstack([mat[:q, :q], mat[:q, q:] @ self.cols])  # T[:q, :] Ĉ
        return self.w * (left[self.k, self.t] + right[self.t, self.k]).real

    def adjoint_congruence(self, a: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`adjoint` (aᴴ·y·a) for Hermitian y, in O(N²q).

        F_i touches only the first q rows and columns, so the adjoint of a
        Hermitian T reads only T[:, :q]: T[:q, :]Ĉ = (ĈᴴT[:, :q])ᴴ, and the
        two terms of :meth:`adjoint` are equal.
        """
        q = self.q
        first = a.conj().T @ (y @ a[:, :q])  # (aᴴya)[:, :q]
        left = np.vstack([first[:q], self.cols.conj().T @ first[q:]])
        return 2.0 * self.w * left[self.k, self.t].real

    def schur(self, g: np.ndarray) -> np.ndarray:
        """[Re tr(G F_i G F_j)]_ij for Hermitian G."""
        q, m, n_v, t, k = self.q, self.cols.shape[1], self.n_v, self.t, self.k
        g_c = np.hstack([g[:, :q], g[:, q:] @ self.cols])  # G Ĉ
        q_hat = np.vstack([g_c[:q], self.cols.conj().T @ g_c[q:]])  # Ĉᴴ G Ĉ: P is its first q columns
        out = np.empty((self.n, self.n))

        # V rows by the entry formula, from the rows k_i and columns t_i of Q
        rows, cols = q_hat.take(k[:n_v], 0), q_hat.take(t[:n_v], 1)
        v_rows = (rows.take(t, 1) * cols.take(k, 0).T + rows.take(k, 1) * cols.take(t, 0).T).real
        v_rows *= 2.0 * self.w[:n_v, None] * self.w
        out[:n_v] = v_rows
        out[n_v:, :n_v] = v_rows[:, n_v:].T  # mirrored into the V columns

        # x–x block at ((s, l), (s′, l′)):
        #     2 Re(P_C[l, s′] P_C[l′, s] + Q_CC[l, l′] G_qq[s′, s]).
        # Re(a b) = [Re a, Im a]·[Re b, −Im b], so each term is a real rank-2
        # product: an outer product of P_C's entries, and the Kronecker product
        # of G_qqᵀ and Q_CC.
        p_c = q_hat[q:, :q].ravel()
        g_qq, q_cc = q_hat[:q, :q].T.ravel(), q_hat[q:, q:].ravel()
        outer = _re_im(2.0 * p_c) @ _re_im(p_c.conj()).T  # rows (l, s′), columns (l′, s)
        kron = _re_im(2.0 * g_qq) @ _re_im(q_cc.conj()).T  # rows (s, s′), columns (l, l′)
        np.add(outer.reshape(m, q, m, q).transpose(3, 0, 1, 2),
               kron.reshape(q, q, m, m).transpose(0, 2, 1, 3),
               out=out[n_v:, n_v:].reshape(q, m, q, m))
        return out

    def factor(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(L, L⁻¹) with L Lᴴ = x for a slack x = [[V′, Mᴴ], [M, I]] ≻ 0.

        L = [[Mᴴ, L_R], [I, 0]], where L_R is the Cholesky factor of the q×q
        Schur complement V′ − MᴴM, so that L⁻¹ = [[0, I], [L_R⁻¹, −L_R⁻¹Mᴴ]].
        Raises ``LinAlgError`` when x is not positive definite.
        """
        q = self.q
        m_h = x[:q, q:]
        l_r = np.linalg.cholesky(x[:q, :q] - m_h @ x[q:, :q])
        l_r_inv = np.linalg.inv(l_r)
        d_r = self.cols.shape[0]
        diag = np.arange(d_r)
        low = np.zeros_like(x)
        low[:q, :d_r] = m_h
        low[:q, d_r:] = l_r
        low[q + diag, diag] = 1.0
        low_inv = np.zeros_like(x)
        low_inv[diag, q + diag] = 1.0
        low_inv[d_r:, :q] = l_r_inv
        low_inv[d_r:, q:] = -(l_r_inv @ m_h)
        return low, low_inv

    def factor_congruence(self, low: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Lᴴ·mat·L for L as returned by :meth:`factor`.

        L = E_q·[Mᴴ, L_R] + P, with E_q the first q columns of I and
        P = [[0, 0], [I, 0]] (the identity block d·r × d·r), so each of the
        two products costs O(N²q).
        """
        q = self.q
        d_r = self.cols.shape[0]
        top = low[:q]
        right = mat[:, :q] @ top  # mat·L
        right[:, :d_r] += mat[:, q:]
        out = top.conj().T @ right[:q]
        out[:d_r] += right[q:]
        return out

    def times_factor_inv(self, mat: np.ndarray, low_inv: np.ndarray) -> np.ndarray:
        """mat·L⁻¹ for L⁻¹ = [[0, I], [L_R⁻¹, −L_R⁻¹Mᴴ]] from :meth:`factor`.

        L⁻¹'s first d·r rows are unit rows, so the product costs O(N²q).
        """
        d_r = self.cols.shape[0]
        out = mat[:, d_r:] @ low_inv[d_r:]
        out[:, self.q:] += mat[:, :d_r]
        return out

    def congruence(self, a: np.ndarray, t: np.ndarray) -> np.ndarray:
        """a·t·aᴴ for t = :meth:`apply` (u), in O(N²q).

        t is the arrow H·E_qᴴ + E_q·Hᴴ, H its first q columns with the q×q
        block halved, so a·t·aᴴ = B·A_qᴴ + A_q·Bᴴ with B = a·H and A_q the
        first q columns of a.
        """
        q = self.q
        arrow = t[:, :q].copy()
        arrow[:q] *= 0.5
        half = (a @ arrow) @ a[:, :q].conj().T
        return half + half.conj().T

    def scaled_extremes(self, low_inv: np.ndarray, dx: np.ndarray) -> tuple[float, float]:
        """(λ_min, λ_max) of L⁻¹·dx·L⁻ᴴ, L⁻¹ as returned by :meth:`factor`.

        ``dx`` is a slack direction [[dV′, dMᴴ], [dM, 0]].  L⁻¹·dx·L⁻ᴴ is
        [[0, B], [Bᴴ, D]] with B = dM·L_R⁻ᴴ and a q×q block D, so its
        eigenvalues are 0 and the 2q roots of det(λ(λ − D) − BᴴB) = 0, which
        are the eigenvalues of the companion matrix [[0, BᴴB], [I, D]].  They
        are real in exact arithmetic, so their real parts are taken.  0 is
        counted among them: it is an eigenvalue whenever d·r > q, and
        otherwise changes no step length.  The cost is O(N·q²), against
        O(N³) for the N×N eigenvalue problem.
        """
        q = self.q
        d_r = self.cols.shape[0]
        k = low_inv[d_r:, :q]  # L_R⁻¹
        k_h = k.conj().T
        e = low_inv[d_r:, q:]  # −L_R⁻¹Mᴴ
        f = dx[q:, :q] @ k_h
        ef = e @ f
        companion = np.zeros((2 * q, 2 * q), dtype=complex)
        companion[:q, q:] = f.conj().T @ f  # BᴴB
        companion[q:, :q] = np.eye(q)
        companion[q:, q:] = k @ dx[:q, :q] @ k_h + ef + ef.conj().T
        roots = np.linalg.eigvals(companion).real
        return min(float(roots.min()), 0.0), max(float(roots.max()), 0.0)


def solve(analysis: ModelAnalysis, closed: ClosedFormBounds, tol: float = 1e-8,
          max_iter: int = 200) -> HolevoSolution:
    """The Holevo bound of ``analysis``, whose closed-form bounds are ``closed``.

    For any W, singular included, and any J, one truncated by ``rank_tol``
    included, a D-invariant model gets c_h = c_d at X_eff, and any other
    model with q ≥ 2 is solved by :func:`_solve_dual` (the module docstring
    gives both theorems and the reductions to range(W) and to JJ⁺dbeta).
    Only q = 1 and the models the dual hands back (often pure states and
    qubits, whose maximizer lies on ‖A‖ = 1) go to :func:`_solve_sdp`.
    Every route reads W through R alone and keeps every unbiasedness
    constraint.  ``tol`` and ``max_iter`` go to whichever solver runs.
    """
    if analysis.d_invariance_residual <= D_INVARIANCE_TOL:  # c_h = c_d, attained at X_eff
        return HolevoSolution(c_h=closed.c_d, x_opt=analysis.x_eff, duality_gap=0.0, iterations=0,
                              status=sdp.OPTIMAL, dual_objective=closed.c_d, method=D_INVARIANT)
    if analysis.model.n_targets >= 2:
        sol = _solve_dual(analysis, closed, tol, max_iter)
        if sol is not None:
            return sol
    return _solve_sdp(analysis, tol, max_iter)


class _Point(NamedTuple):
    """f at one K = RARᵀ, with what its Hessian and minimizer reuse.

    ``upper`` is the nonsmooth objective N(X(K)) and ``gradient`` ∂f/∂A
    over the entries s < t.  ``u`` diagonalizes iA = U diag(σ) Uᴴ,
    ``inv_den`` (pairs × q) holds the 1/den_k, ``inv_info`` is 𝒥⁻¹ and
    ``xi`` holds the minimizer's ξ_ab = Rᵀx_ab.
    """

    value: float
    upper: float
    gradient: np.ndarray
    u: np.ndarray
    inv_den: np.ndarray
    inv_info: np.ndarray
    xi: np.ndarray


class _Dual:
    """f(K) = min over unbiased X of Re tr[(W + iK)Z(X)], in ρ's eigenbasis.

    Take the pairs a ≤ b that touch ρ's support, with x_ab = ((X_s)_ab)_s,
    g_ab = ((∂_jρ)_ba)_j and c_ab the number of ordered pairs (1 on the
    diagonal, 2 off it).  With K = RARᵀ and ξ_ab = Rᵀx_ab (q here is rank W),
    the objective is Σ (c/2) ξ_abᴴ N_ab ξ_ab, N_ab = λ_a(I + iA) + λ_b(I − iA),
    and the constraints are Σ c Re(g_ab,j ξ_ab,s) = ∂β̃_js with ∂β̃ = ∂βR: W
    enters through ∂β̃ alone.  Diagonalizing iA = U diag(σ) Uᴴ once turns every
    N_ab⁻¹ into Σ_k u_k u_kᴴ/den_k with den_k = (1 + σ_k)λ_a + (1 − σ_k)λ_b,
    so the KKT system is the q·r × q·r matrix

        𝒥 = Re Σ_k A_k ⊗ u_k u_kᴴ,      A_k = Σ_ab 2c·g_ab g_abᴴ / den_k,

    f = vec(∂β̃)ᵀ 𝒥⁻¹ vec(∂β̃), and ξ_ab = 2 Σ_k u_k u_kᴴ Λᵀḡ_ab / den_k with
    Λ = 𝒥⁻¹ vec(∂β̃).  At A = 0, 𝒥 = J ⊗ I and f = c_gs.  The constraint
    tr ρX = 0 is left out: tr ∂_jρ = 0 makes the minimizer satisfy it.  The
    parameters are rotated onto J's r-dimensional range above roundoff
    (``qfim_range``), where 𝒥 is positive definite for ‖A‖ < 1 (Jv = 0 makes
    v·g_ab = 0 on every pair), and ∂β is read there as JJ⁺∂β (``dbeta_range``):
    0 along the eigenvectors that ``rank_tol`` drops, which 𝒥⁻¹ would magnify.

    Everything that does not depend on A is computed here, once per model,
    so that :meth:`point` and :meth:`hessian` are a few products each on
    arrays of pairs × q.
    """

    def __init__(self, analysis: ModelAnalysis):
        q, span = analysis.weight_factor.shape[1], analysis.qfim_range
        vals = np.where(analysis.support, analysis.eigvals, 0.0)
        a, b = _support_pairs(analysis.support)
        g = analysis.drho_eig[:, b, a].T @ span  # (pairs, r)
        count = np.where(a == b, 1.0, 2.0)[:, None]
        lam_a, lam_b = vals[a, None], vals[b, None]
        self.q, self.r = q, span.shape[1]
        self.lam_sum, self.lam_diff = lam_a + lam_b, lam_a - lam_b
        self.count = count
        self.g_conj2, self.g_count = 2.0 * g.conj(), (count * g).T
        self.gram_t = (self.g_count[:, None, :] * self.g_conj2.T).reshape(-1, g.shape[0])  # rows 2c·g gᴴ
        # (2, 1, pairs): the weights (c/2)(λ_a + λ_b) and (c/2)(λ_a − λ_b) of RᵀZR
        self.halves = (0.5 * count.T * np.concatenate([self.lam_sum.T, self.lam_diff.T]))[:, None]
        self.i_diff = 1j * self.lam_diff
        self.dbeta = (analysis.dbeta_range @ analysis.weight_factor).ravel()
        index = np.arange(q)
        self.tri = s, t = np.nonzero(index[:, None] < index)  # the entries s < t of A, row-major
        entry = np.arange(s.size)
        self.basis = np.zeros((q * q, s.size), dtype=complex)  # iA = basis @ (upper triangle of A)
        self.basis[s * q + t, entry], self.basis[t * q + s, entry] = 1j, -1j

    def point(self, a_vec: np.ndarray) -> _Point | None:
        """f at A with upper triangle ``a_vec``; None when ‖A‖ ≥ 1 (or is not
        finite) or 𝒥 is singular."""
        q, r = self.q, self.r
        sigma, u = np.linalg.eigh((self.basis @ a_vec).reshape(q, q))
        if not (np.abs(sigma) < 1.0).all():
            return None
        u_conj = u.conj()
        inv_den = 1.0 / (self.lam_sum + self.lam_diff * sigma)  # (pairs, q)
        outer = (u[:, None, :] * u_conj).reshape(q * q, q)  # u_k u_kᴴ, (q², q)
        info = ((self.gram_t @ inv_den) @ outer.T).real  # A_k entries × u_k u_kᴴ entries
        try:
            inv_info = np.linalg.inv(info.reshape(r, r, q, q).transpose(0, 2, 1, 3).reshape(r * q, r * q))
        except np.linalg.LinAlgError:
            return None
        lam = inv_info @ self.dbeta
        xi = ((self.g_conj2 @ (lam.reshape(r, q) @ u_conj)) * inv_den) @ u.T
        # RᵀZR = Σ (c/2)(λ_a ξξᴴ + λ_b ξ̄ξᵀ): real part with λ_a + λ_b, imaginary with λ_a − λ_b
        z_w = (xi.T * self.halves).reshape(2 * q, xi.shape[0]) @ xi.conj()
        re_z, im_z = z_w[:q].real, z_w[q:].imag
        im_z = (im_z - im_z.T) / 2
        value = float(lam @ self.dbeta)
        upper = float(re_z.trace()) + float(np.abs(np.linalg.eigvalsh(1j * im_z)).sum())
        if not math.isfinite(value + upper):
            return None
        return _Point(value, upper, 2.0 * im_z[self.tri], u, inv_den, inv_info, xi)

    def hessian(self, pt: _Point) -> np.ndarray:
        """∂²f/∂A² over the entries s < t: 2R𝒥⁻¹Rᵀ − S, from the point's own 𝒥⁻¹.

        A moves N_ab by (λ_a − λ_b)(iE_st − iE_ts).  With
        η = (λ_a − λ_b)Uᴴ(iE_st − iE_ts)ξ_ab, the minimizer moves by
        2N⁻¹Λ′ᵀḡ − U(η/den), where 𝒥Λ′ = R keeps it unbiased:
        R_(st),js = Σ c Re[g_j (U η/den)_s].
        S_(st),(s′t′) = Σ c Re Σ_k η̄_k η′_k/den_k.
        """
        (s, t), n = self.tri, self.tri[0].size
        u_conj, xi_t = pt.u.conj(), pt.xi.T
        eta = self.i_diff * (xi_t[t, :, None] * u_conj[s, None, :]
                             - xi_t[s, :, None] * u_conj[t, None, :])  # (n, pairs, q)
        omega = eta * pt.inv_den
        curvature = ((omega * self.count).reshape(n, -1).conj() @ eta.reshape(n, -1).T).real
        rhs = (self.g_count @ (omega @ pt.u.T)).real.reshape(n, -1)
        return 2.0 * rhs @ pt.inv_info @ rhs.T - curvature


def _solve_dual(analysis: ModelAnalysis, closed: ClosedFormBounds, tol: float,
                max_iter: int) -> HolevoSolution | None:
    """Maximize f(K) by Newton's method from K = 0, closing a certified bracket.

    f(K) ≤ c_h for every feasible K (weak duality) and c_h ≤ N(X) for every
    unbiased X, N the nonsmooth objective, so the largest f(K) and the
    smallest of c_d and N(X(K)) met so far bracket c_h; they start as
    [c_gs, c_d].  Returns c_h = the upper end once the width is at most
    ``tol`` times it, or None, for :func:`_solve_sdp` to take over, when a
    step would leave ‖A‖ < 1, narrows the bracket by nothing, or
    ``max_iter`` steps pass.  Narrowing, not a rise of f, is the test of a
    step: f converges quadratically and reaches roundoff one step before
    N(X(K)) − f(K), which shrinks with the gradient, does.

    The certificate is ``x_opt``, the unbiased minimizer X(K) of the point
    at the upper end, or X_eff when that end is still c_d.
    :func:`verify_solution` checks it by recomputing N(x_opt) from Z(x_opt)
    and the model, independently of this solver.
    """
    dual = _Dual(analysis)
    a_vec = np.zeros(dual.tri[0].size)
    pt = dual.point(a_vec)
    if pt is None:
        return None
    lower = pt.value
    best = pt if pt.upper < closed.c_d and a_vec.size else None  # None: X_eff, at N = c_d
    upper = closed.c_d if best is None else best.upper
    for iterations in range(max_iter + 1):
        if upper - lower <= tol * upper or not a_vec.size:  # rank W ≤ 1: no variable, c_h = c_d = c_gs
            break
        if iterations == max_iter:
            return None
        try:
            step = np.linalg.solve(dual.hessian(pt), -pt.gradient)
        except np.linalg.LinAlgError:
            return None
        a_vec = a_vec + step
        pt = dual.point(a_vec)
        if pt is None or min(upper, pt.upper) - max(lower, pt.value) >= upper - lower:
            return None
        lower = max(lower, pt.value)
        if pt.upper < upper:
            best, upper = pt, pt.upper
    return HolevoSolution(
        c_h=upper,
        x_opt=analysis.x_eff if best is None else _lift(analysis, best.xi),
        duality_gap=(upper - lower) / upper if upper else 0.0,  # W = 0: c_h = 0
        iterations=iterations,
        status=sdp.OPTIMAL,
        dual_objective=lower,
        method=DUAL,
    )


def _feasible_directions(analysis: ModelAnalysis) -> np.ndarray:
    """Orthonormal feasible directions D_l, (m, d, d) in rho's eigenbasis.

    Over the support pairs a ≤ b, tr(AX) is the dot product of the real
    coordinates X_aa, √2 Re X_ab and √2 Im X_ab (a < b).  The D_l span the
    nullspace of those of rho and of every drho_j, cut at 1e-12 of the
    largest singular value, and have no kernel×kernel block.
    """
    a, b = _support_pairs(analysis.support)
    diag, off = a == b, a != b
    n_diag, n_off = np.count_nonzero(diag), np.count_nonzero(off)
    cross = analysis.drho_eig[:, a[off], b[off]]
    rho_row = np.zeros(n_diag + 2 * n_off)
    rho_row[:n_diag] = analysis.eigvals[a[diag]]
    drho_rows = np.hstack([analysis.drho_eig[:, a[diag], a[diag]].real,
                           np.sqrt(2.0) * cross.real, np.sqrt(2.0) * cross.imag])
    _, svals, vh = np.linalg.svd(np.vstack([rho_row, drho_rows]), full_matrices=True)
    null = vh[np.count_nonzero(svals > max(svals.max(), 1e-300) * 1e-12):]
    values = np.zeros((null.shape[0], a.size), dtype=complex)  # entries (D_l)_ab
    values[:, diag] = null[:, :n_diag]
    values[:, off] = (null[:, n_diag:n_diag + n_off] + 1j * null[:, n_diag + n_off:]) / np.sqrt(2.0)
    directions = np.zeros((null.shape[0],) + analysis.eigvecs.shape, dtype=complex)
    directions[:, a, b] = values
    directions[:, b, a] = values.conj()
    return directions


def _solve_sdp(analysis: ModelAnalysis, tol: float = 1e-8, max_iter: int = 200) -> HolevoSolution:
    """Minimize tr(diag(w₊) Ṽ) over the epigraph SDP of the model reduced to range(W).

    That model is (∂βU₊, diag(w₊)), w₊ the squared column norms of R and
    U₊ = R diag(w₊)^-½, with operators X̃ = XU₊ and efficient ones
    X̃_eff = X_effU₊; for W ≻ 0 its SDP is a rotation of the model's own.
    For W = 0 (q′ = 0) every unbiased X attains c_h = 0, and X_eff is
    returned with no solve.

    The strictly feasible start that :func:`qcrb.sdp.solve_lmi` requires is
    X̃_eff with V₀ = Re Z + (1.1‖Z‖₂ + 1)I, Z = Z(X̃_eff), so that
    V₀ − Z ⪰ (0.1‖Z‖₂ + 1)I, and S₀ = diag(diag(w₊) + εI, w̄I) with
    w̄ = max(Σw₊ / q′, 1) and ε = 1e-6·w̄.  ``MaxIterations`` and
    ``NumericalTrouble`` return the best iterate found.
    """
    factor = analysis.weight_factor
    w = (factor * factor).sum(axis=0)
    q = w.size
    if not q:
        return HolevoSolution(c_h=0.0, x_opt=analysis.x_eff, duality_gap=0.0, iterations=0,
                              status=sdp.OPTIMAL, dual_objective=0.0)
    vecs, support = analysis.eigvecs, analysis.support
    root_vals = np.sqrt(analysis.eigvals[support])  # √ρ on the support, in its eigenbasis
    d_r = support.size * root_vals.size

    directions = _feasible_directions(analysis)  # (m, d, d), in rho's eigenbasis
    a_p, b_p = _support_pairs(support)
    m_s = directions.shape[0]
    op = EpigraphOperator(q, (directions[:, :, support] * root_vals).reshape(m_s, d_r).T)
    a, b = np.triu_indices(q)  # the V variables, in the operator's order
    n_v = a.size
    c = np.concatenate([np.where(a == b, w[a], 0.0), np.zeros(q * m_s)])

    x_tilde = ((factor / np.sqrt(w)).T @ analysis.x_eff.reshape(factor.shape[0], -1)).reshape((q,) + vecs.shape)
    x_eff_eig = vecs.conj().T @ x_tilde @ vecs  # X̃_eff = X_effU₊, in rho's eigenbasis
    m0 = (x_eff_eig[:, :, support] * root_vals).reshape(q, d_r).T  # column s: X̃_eff,s √ρ
    f0 = np.zeros((q + d_r,) * 2, dtype=complex)
    f0[q:, :q] = m0
    f0[:q, q:] = m0.conj().T
    f0[q:, q:] = np.eye(d_r)

    z_eff = linalg.z_matrix(x_eff_eig, np.diag(analysis.eigvals))
    z_norm = float(np.linalg.norm(z_eff, 2))
    v_start = z_eff.real + (1.1 * z_norm + 1.0) * np.eye(q)
    u0 = np.concatenate([v_start[a, b], np.zeros(q * m_s)])
    w_scale = max(float(w.sum()) / q, 1.0)
    s0 = np.diag(np.concatenate([w + 1e-6 * w_scale, np.full(d_r, w_scale)])).astype(complex)

    result = sdp.solve_lmi(c, f0, op, u0=u0, s0=s0, tol=tol, max_iter=max_iter)

    y = result.u[n_v:].reshape(q, m_s)
    shift = (y @ directions[:, a_p, b_p]).T * np.sqrt(w)  # ξ − X_effR on the support pairs
    return HolevoSolution(
        c_h=float((w * result.u[:n_v][a == b]).sum()),
        x_opt=_lift(analysis, shift, centered=True),
        duality_gap=result.relgap,
        iterations=result.iterations,
        status=result.status,
        dual_objective=result.dobj,
        reason=result.reason,
    )


def _lift(analysis: ModelAnalysis, xi: np.ndarray, centered: bool = False) -> np.ndarray:
    """X = ξR⁺ + X_eff(I − RR⁺), (q, d, d) in the original frame, from ``xi``: ξ = XR on rho's support
    pairs (pairs × q′), or with ``centered`` ξ − X_effR, lifted as X_eff + ξR⁺ (the same X)."""
    a, b = _support_pairs(analysis.support)
    factor = analysis.weight_factor
    pinv = (factor / (factor * factor).sum(axis=0)).T  # R⁺: R's columns are orthogonal
    x = xi @ pinv  # (pairs, q)
    x_eig = np.zeros((x.shape[1],) + analysis.eigvecs.shape, dtype=complex)
    x_eig[:, a, b] = x.T
    x_eig[:, b, a] = x.T.conj()
    base = analysis.x_eff if centered else np.tensordot(np.eye(x.shape[1]) - factor @ pinv, analysis.x_eff,
                                                        axes=(0, 0))
    return analysis.eigvecs @ x_eig @ analysis.eigvecs.conj().T + base


@dataclass(frozen=True)
class HolevoVerification:
    objective_deviation: float
    unbias_residual: float


def verify_solution(analysis: ModelAnalysis, sol: HolevoSolution,
                    closed: ClosedFormBounds) -> HolevoVerification:
    """Recheck an Optimal solution independently of the solver.

    Recomputes the nonsmooth objective tr W Re Z(X) + ‖√W Im Z(X) √W‖₁ at
    the reported minimizer and the unbiasedness residuals, and checks
    c_gs ≤ c_h ≤ c_d against ``closed``, the closed-form bounds of the same
    analysis.  On the dual path it also checks that the bracket has not
    crossed: the lower end f(K) may not exceed c_h.  Raises
    :class:`VerificationFailed` naming the first violated check.
    """
    if sol.status != sdp.OPTIMAL:
        raise VerificationFailed(f"solution status is {sol.status}, not {sdp.OPTIMAL}")
    model = analysis.model

    z = linalg.z_matrix(sol.x_opt, model.rho)
    factor = analysis.weight_factor
    nonsmooth = float(np.trace(model.weight @ z.real)) + linalg.trace_norm(factor.T @ z.imag @ factor)
    deviation = abs(nonsmooth - sol.c_h)
    if deviation > OBJECTIVE_TOL * max(1.0, abs(sol.c_h)):
        raise VerificationFailed(
            f"nonsmooth objective {nonsmooth!r} deviates from c_h {sol.c_h!r} by {deviation:.3e}"
        )

    unbias = unbiasedness_residual(model, sol.x_opt)
    if unbias > CONSTRAINT_TOL:
        raise VerificationFailed(f"local unbiasedness violated: residual {unbias:.3e}")

    gs, d = closed.c_gs, closed.c_d
    if not (gs - OBJECTIVE_TOL * max(1.0, gs) <= sol.c_h <= d + OBJECTIVE_TOL * max(1.0, d)):
        raise VerificationFailed(
            f"bound ordering violated: c_gs={gs!r}, c_h={sol.c_h!r}, c_d={d!r}"
        )

    if sol.method == DUAL and sol.dual_objective > sol.c_h + OBJECTIVE_TOL * max(1.0, abs(sol.c_h)):
        raise VerificationFailed(
            f"dual bracket crossed: f(K)={sol.dual_objective!r} above c_h={sol.c_h!r}"
        )
    return HolevoVerification(
        objective_deviation=deviation,
        unbias_residual=unbias,
    )
