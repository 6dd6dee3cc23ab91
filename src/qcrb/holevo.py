"""The Holevo bound as a semidefinite program over influence operators.

The locally unbiased influence operators are X_s = X_eff,s + Σ_l y_sl D_l:
the efficient operators of the model's :class:`~qcrb.sld.ModelAnalysis`
plus any combination of feasible directions D_l, the Hermitian operators
orthogonal to rho and to every drho_j.  The directions span the nullspace
of those constraints within the operators touching rho's support, so
iterates stay feasible by construction.  The kernel×kernel block is left
out: it changes neither X√ρ nor any constraint (drho carries no content
there).  The epigraph matrix V ⪰ Z(X) is imposed through the
Schur-complement block

    [[V, M(y)†], [M(y), I]]  ⪰ 0,      M(y)† M(y) = Z(X),

where column s of M(y) holds the entries of X_s √ρ.  The single PSD block
goes to the interior-point core in :mod:`qcrb.sdp`, its constraint
matrices held by an :class:`EpigraphOperator` in factored form rather
than as a dense (n, N, N) array.

:func:`solve` reads rho's eigenbasis and the efficient influence
operators from the model's one analysis, which has already decided that
the model is estimable.  :func:`verify_solution` rechecks a solution
against that analysis and against the closed-form bounds that
:func:`qcrb.bounds.sandwich` computed for it.

Short cut on D-invariant models.  At the efficient operators the Holevo
objective tr W Re Z + ‖√W Im Z √W‖₁ equals c_d.  When span_R{L_j} is
closed under the commutation superoperator 𝒟_ρ, X_eff is a minimizer and
c_h = c_d (Suzuki, J. Math. Phys. 57, 042201 (2016); Holevo, "Probabilistic
and Statistical Aspects of Quantum Theory").  For W ≻ 0 the pair
(X_eff, V) with

    V = Re Z + W^-½ |W^½ Im Z W^½| W^-½,       Z = Z(X_eff),

is a feasible point of the SDP of objective tr W V = c_d: V − Z =
W^-½ (|K| − iK) W^-½ with K = W^½ Im Z W^½, which is ⪰ 0 because iK is
Hermitian and |iK| = |K|.  :func:`solve` returns that point, with no
iteration, whenever the analysis's ``d_invariance_residual`` is at most
:data:`D_INVARIANCE_TOL` and W is positive definite; every other model
takes the interior-point path.  The short cut's ``dual_objective`` is c_d,
the lower bound the theorem gives.
"""

from __future__ import annotations

from dataclasses import dataclass

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
#: W counts as positive definite when its smallest eigenvalue exceeds this
#: multiple of its largest; a singular W may have no finite V attaining c_d.
WEIGHT_DEFINITE_TOL = 1e-12

#: ``HolevoSolution.method`` of an interior-point solve and of the short cut.
SDP = "sdp"
D_INVARIANT = "d_invariant"


@dataclass(frozen=True)
class HolevoSolution:
    """SDP outcome: bound value, minimizer, and certificates; ``reason``
    says what failed when ``status`` is ``NumericalTrouble``, and ``method``
    is :data:`SDP` or :data:`D_INVARIANT` (the short cut, 0 iterations)."""

    c_h: float
    x_opt: np.ndarray
    v_opt: np.ndarray
    duality_gap: float
    iterations: int
    status: str
    dual_objective: float
    primal_residual: float
    dual_residual: float
    reason: str = ""
    method: str = SDP


def _reduced_hermitian_basis(supp: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Basis of Hermitian operators touching the support of rho.

    ``supp``/``kern`` are orthonormal support and kernel eigenvector
    blocks.  Returns r² support-block elements followed by 2·r·k cross
    pairs; all orthonormal under the Hilbert-Schmidt inner product.  With
    an empty kernel this is the full basis, rotated into rho's eigenbasis.
    """
    r = supp.shape[1]
    k = kern.shape[1]
    elems = [supp @ e @ supp.conj().T for e in linalg.hermitian_basis(r)]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(r):
        u = supp[:, i]
        for j in range(k):
            v = kern[:, j]
            cross = np.outer(u, v.conj())
            elems.append((cross + cross.conj().T) * inv_sqrt2)
            elems.append((-1j * cross + 1j * cross.conj().T) * inv_sqrt2)
    return np.array(elems)


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
    C (d·r × m), the entries of D_l √ρ.  With P = ĈᴴG[:, :q] and Q = ĈᴴGĈ,

        Re tr(G F_i G F_j) = 2 w_i w_j Re(P[k_i, t_j] P[k_j, t_i] + Q[k_i, k_j] G[t_j, t_i]),

    w being the halving weight, so the Schur complement costs
    O(N²m + N m² + n²) and no N×N matrix is formed per variable.  Only the
    q(q+1)/2 V rows are gathered entry by entry.  On the x–x block, which is
    (q·m)², w = 1 and the formula splits into two real rank-2 products, an
    outer product of the entries of P_C = P[q:] and the Kronecker product
    of G_qqᵀ and Q_CC = Q[q:, q:], which are summed by one (q, m, q, m)
    broadcast.

    A slack of this LMI is X = [[V′, Mᴴ], [M, cI]]: F0's lower-right block
    is I and no F_i touches it, so c = 1 + τ.  :meth:`factor` and
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
        # flat indices into Ĉᴴ G Ĉ ((q + m)², row-major) of the four factors
        # P[k_i, t_j], P[k_j, t_i], Q[k_i, k_j], G[t_j, t_i] of each V-row entry
        size = q + m
        row_k, col_k = self.k[:self.n_v, None], self.k[None, :]
        row_t, col_t = self.t[:self.n_v, None], self.t[None, :]
        self.v_factors = (row_k * size + col_t, col_k * size + row_t,
                          row_k * size + col_k, col_t * size + row_t)
        self.v_weight = 2.0 * self.w[:self.n_v, None] * self.w[None, :]

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
        q, m, n_v = self.q, self.cols.shape[1], self.n_v
        g_c = np.hstack([g[:, :q], g[:, q:] @ self.cols])  # G Ĉ
        q_hat = np.vstack([g_c[:q], self.cols.conj().T @ g_c[q:]])  # Ĉᴴ G Ĉ: P is its first q columns
        out = np.empty((self.n, self.n))

        # V rows by the entry formula, mirrored into the V columns
        flat = q_hat.ravel()
        p_kt, p_tk, q_kk, g_tt = (flat[index] for index in self.v_factors)
        v_rows = (p_kt * p_tk + q_kk * g_tt).real * self.v_weight
        out[:n_v] = v_rows
        out[n_v:, :n_v] = v_rows[:, n_v:].T

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
        """(L, L⁻¹) with L Lᴴ = x for a slack x = [[V′, Mᴴ], [M, cI]] ≻ 0.

        L = [[Mᴴ/√c, L_R], [√c I, 0]], where L_R is the Cholesky factor of
        the q×q Schur complement V′ − MᴴM/c, so that
        L⁻¹ = [[0, I/√c], [L_R⁻¹, −L_R⁻¹Mᴴ/c]].  Raises ``LinAlgError``
        when x is not positive definite.
        """
        q = self.q
        c = x[q, q].real
        m_h = x[:q, q:]
        l_r = np.linalg.cholesky(x[:q, :q] - m_h @ x[q:, :q] / c)
        l_r_inv = np.linalg.inv(l_r)
        root_c = np.sqrt(c)
        d_r = self.cols.shape[0]
        diag = np.arange(d_r)
        low = np.zeros_like(x)
        low[:q, :d_r] = m_h / root_c
        low[:q, d_r:] = l_r
        low[q + diag, diag] = root_c
        low_inv = np.zeros_like(x)
        low_inv[diag, q + diag] = 1.0 / root_c
        low_inv[d_r:, :q] = l_r_inv
        low_inv[d_r:, q:] = l_r_inv @ m_h / -c
        return low, low_inv

    def factor_congruence(self, low: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Lᴴ·mat·L for L as returned by :meth:`factor`.

        L = E_q·[Mᴴ/√c, L_R] + √c·P, with E_q the first q columns of I and
        P = [[0, 0], [I, 0]] (the identity block d·r × d·r), so each of the
        two products costs O(N²q).
        """
        q = self.q
        d_r = self.cols.shape[0]
        root_c = low[q, 0].real
        top = low[:q]
        right = mat[:, :q] @ top  # mat·L
        right[:, :d_r] += root_c * mat[:, q:]
        out = top.conj().T @ right[:q]
        out[:d_r] += root_c * right[q:]
        return out

    def times_factor_inv(self, mat: np.ndarray, low_inv: np.ndarray) -> np.ndarray:
        """mat·L⁻¹ for L⁻¹ = [[0, I/√c], [L_R⁻¹, −L_R⁻¹Mᴴ/c]] from :meth:`factor`.

        L⁻¹'s first d·r rows are unit rows scaled by 1/√c, so the product
        costs O(N²q).
        """
        d_r = self.cols.shape[0]
        out = mat[:, d_r:] @ low_inv[d_r:]
        out[:, self.q:] += mat[:, :d_r] * low_inv[0, self.q].real
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

        ``dx`` is a slack direction [[dV′, dMᴴ], [dM, −τI]].  L⁻¹·dx·L⁻ᴴ is
        [[−tI, B], [Bᴴ, D]] with t = τ/c, B = (dM + τM/c)·L_R⁻ᴴ/√c and a q×q
        block D, so its eigenvalues are −t and the 2q roots of
        det((λ + t)(λ − D) − BᴴB) = 0, which are the eigenvalues of the
        companion matrix [[−tI, BᴴB], [I, D]].  They are real in exact
        arithmetic, so their real parts are taken.  −t is counted among them:
        it is an eigenvalue whenever d·r > q, and otherwise changes no step
        length, since the lower-right block (c − ατ)I of x + α·dx caps every
        primal step at c/τ, the step −1/λ that λ = −t gives.  The cost is
        O(N·q²), against O(N³) for the N×N eigenvalue problem.
        """
        q = self.q
        d_r = self.cols.shape[0]
        k = low_inv[d_r:, :q]  # L_R⁻¹
        k_h = k.conj().T
        e = low_inv[d_r:, q:]  # −L_R⁻¹Mᴴ/c
        f = dx[q:, :q] @ k_h
        ef = e @ f
        d = k @ dx[:q, :q] @ k_h + ef + ef.conj().T
        inv_c = low_inv[0, q].real ** 2
        tau = -dx[q, q].real
        if tau:
            f = f - tau * e.conj().T
            d = d - tau * (e @ e.conj().T)
        t = tau * inv_c
        companion = np.zeros((2 * q, 2 * q), dtype=complex)
        companion[:q, :q] = -t * np.eye(q)
        companion[:q, q:] = inv_c * (f.conj().T @ f)  # BᴴB
        companion[q:, :q] = np.eye(q)
        companion[q:, q:] = d
        roots = np.linalg.eigvals(companion).real
        return min(float(roots.min()), -t), max(float(roots.max()), -t)


def solve(analysis: ModelAnalysis, closed: ClosedFormBounds, tol: float = 1e-8,
          max_iter: int = 200) -> HolevoSolution:
    """The Holevo bound of ``analysis``, whose closed-form bounds are ``closed``.

    A D-invariant model with W ≻ 0 gets c_h = c_d at X_eff with no SDP (the
    module docstring gives the theorem and the certificate); every other
    model is solved by :func:`_solve_sdp` with ``tol`` and ``max_iter``.
    """
    if analysis.d_invariance_residual <= D_INVARIANCE_TOL:
        w_vals, w_vecs = np.linalg.eigh(analysis.model.weight)
        if w_vals.min() > WEIGHT_DEFINITE_TOL * w_vals.max():
            return _d_invariant_solution(analysis, closed, w_vals, w_vecs)
    return _solve_sdp(analysis, tol, max_iter)


def _d_invariant_solution(analysis: ModelAnalysis, closed: ClosedFormBounds,
                          w_vals: np.ndarray, w_vecs: np.ndarray) -> HolevoSolution:
    """c_h = c_d attained at X_eff, certified by V = Re Z + W^-½|W^½ Im Z W^½|W^-½."""
    z = analysis.z_eff
    root_w = analysis.root_weight
    mu, vecs = np.linalg.eigh(1j * (root_w @ z.imag @ root_w))  # iK, K = W^½ Im Z W^½
    abs_k = ((vecs * np.abs(mu)) @ vecs.conj().T).real
    inv_root_w = (w_vecs / np.sqrt(w_vals)) @ w_vecs.T
    v_opt = z.real + inv_root_w @ abs_k @ inv_root_w
    return HolevoSolution(
        c_h=closed.c_d,
        x_opt=analysis.x_eff,
        v_opt=(v_opt + v_opt.T) / 2,
        duality_gap=0.0,
        iterations=0,
        status=sdp.OPTIMAL,
        dual_objective=closed.c_d,
        primal_residual=0.0,
        dual_residual=0.0,
        method=D_INVARIANT,
    )


def _solve_sdp(analysis: ModelAnalysis, tol: float = 1e-8, max_iter: int = 200) -> HolevoSolution:
    """Minimize tr(W V) over the epigraph SDP by the interior-point core.

    The iteration starts from the efficient influence operators with
    V = Re Z(X_eff) plus a spectral margin, which is strictly interior.
    Status is ``Optimal`` when primal/dual feasibility and the relative
    duality gap reach tolerance; ``MaxIterations``/``NumericalTrouble``
    return the best iterate found.
    """
    model = analysis.model
    q = model.n_targets
    vals, vecs, support = analysis.eigvals, analysis.eigvecs, analysis.support
    right_factor = vecs[:, support] * np.sqrt(vals[support])  # √ρ restricted to the support
    d_r = right_factor.size
    block = q + d_r
    weight = np.asarray(model.weight, dtype=float)

    # feasible directions: the nullspace of the basis coefficients of [rho, drho_1 … drho_p]
    basis = _reduced_hermitian_basis(vecs[:, support], vecs[:, ~support])
    constraints = np.array([linalg.basis_coefficients(a, basis)
                            for a in (analysis.rho, *np.asarray(model.drho, dtype=complex))])
    _, svals, vh = np.linalg.svd(constraints, full_matrices=True)
    rank = int(np.count_nonzero(svals > max(svals.max(), 1e-300) * 1e-12))
    directions = np.tensordot(vh[rank:], basis, axes=(1, 0))  # (m, d, d)
    m_s = directions.shape[0]
    op = EpigraphOperator(q, (directions @ right_factor).reshape(m_s, d_r).T)
    a, b = np.triu_indices(q)  # the V variables, in the operator's order
    n_v = a.size
    n = n_v + q * m_s

    c = np.zeros(n)
    c[:n_v] = np.where(a == b, 1.0, 2.0) * weight[a, b]

    f0 = np.zeros((block, block), dtype=complex)
    m0 = (analysis.x_eff @ right_factor).reshape(q, d_r).T  # column s: X_eff,s √ρ
    f0[q:, :q] = m0
    f0[:q, q:] = m0.conj().T
    f0[q:, q:] = np.eye(d_r)

    z_eff = analysis.z_eff
    z_norm = float(np.linalg.norm(z_eff, 2))
    v_start = z_eff.real + (1.1 * z_norm + 1.0) * np.eye(q)
    u0 = np.zeros(n)
    u0[:n_v] = v_start[a, b]

    w_scale = max(float(np.trace(weight)) / q, 1.0)
    s0 = np.zeros((block, block), dtype=complex)
    s0[:q, :q] = weight + 1e-6 * w_scale * np.eye(q)
    s0[q:, q:] = w_scale * np.eye(d_r)

    result = sdp.solve_lmi(c, f0, op, u0=u0, s0=s0, tol=tol, max_iter=max_iter)

    v_opt = np.zeros((q, q))
    v_opt[a, b] = v_opt[b, a] = result.u[:n_v]
    y = result.u[n_v:].reshape(q, m_s)
    x_opt = analysis.x_eff + np.tensordot(y, directions, axes=(1, 0))

    return HolevoSolution(
        c_h=float(np.trace(weight @ v_opt)),
        x_opt=x_opt,
        v_opt=v_opt,
        duality_gap=result.relgap,
        iterations=result.iterations,
        status=result.status,
        dual_objective=result.dobj,
        primal_residual=result.pinfeas,
        dual_residual=result.dinfeas,
        reason=result.reason,
    )


@dataclass(frozen=True)
class HolevoVerification:
    nonsmooth_objective: float
    objective_deviation: float
    unbias_residual: float


def verify_solution(analysis: ModelAnalysis, sol: HolevoSolution,
                    closed: ClosedFormBounds) -> HolevoVerification:
    """Recheck an Optimal solution independently of the solver.

    Recomputes the nonsmooth objective tr W Re Z(X) + ‖√W Im Z(X) √W‖₁ at
    the reported minimizer and the unbiasedness residuals, and checks
    c_gs ≤ c_h ≤ c_d against ``closed``, the closed-form bounds of the same
    analysis.  Raises :class:`VerificationFailed` naming the first violated
    check.
    """
    if sol.status != sdp.OPTIMAL:
        raise VerificationFailed(f"solution status is {sol.status}, not {sdp.OPTIMAL}")
    model = analysis.model

    z = linalg.z_matrix(sol.x_opt, model.rho)
    root_w = analysis.root_weight
    nonsmooth = float(np.trace(model.weight @ z.real)) + linalg.trace_norm(root_w @ z.imag @ root_w)
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
    return HolevoVerification(
        nonsmooth_objective=nonsmooth,
        objective_deviation=deviation,
        unbias_residual=unbias,
    )
