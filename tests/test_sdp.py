import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb import linalg
from qcrb.sdp import (NT_EIGENVALUE, NUMERICAL_TROUBLE, OPTIMAL, SCHUR_CHOLESKY, SLACK_CHOLESKY,
                      _cholesky_inverse, _DenseForms, _nt_scaling, solve_lmi)
from _support import DenseOperator, psd_sqrt


def epigraph_instance(z0, w):
    """min tr(W V) s.t. V >= Z0: analytic optimum is known in closed form.

    Returns (c, F0, op, u0, S0) with the strictly feasible start
    V0 = Re Z0 + (‖Z0‖₂ + 1)I, so F(u0) = V0 − Z0 ⪰ I, and S0 = I.
    """
    q = z0.shape[0]
    fs, c = [], []
    for a in range(q):
        for b in range(a, q):
            e = np.zeros((q, q), dtype=complex)
            e[a, b] = 1.0
            e[b, a] = 1.0
            fs.append(e)
            c.append(w[a, a] if a == b else 2.0 * w[a, b])
    a, b = np.triu_indices(q)
    v0 = z0.real + (np.linalg.norm(z0, 2) + 1.0) * np.eye(q)
    return np.array(c), -z0.astype(complex), DenseOperator(np.array(fs)), v0[a, b], np.eye(q)


def random_epigraph(seed, q):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    return epigraph_instance(g @ g.conj().T, np.eye(q))


class TestSolveLmi:
    def test_scalar_bound(self):
        # min u s.t. [[u, 1], [1, u]] >= 0 has optimum u = 1
        res = solve_lmi(
            np.array([1.0]),
            np.array([[0, 1], [1, 0]], dtype=complex),
            DenseOperator(np.array([np.eye(2, dtype=complex)])),
            u0=np.array([2.0]),
            s0=np.eye(2),
        )
        assert res.status == OPTIMAL
        assert res.u[0] == pytest.approx(1.0, abs=1e-7)

    def test_epigraph_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = int(rng.integers(1, 5))
            g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            z0 = g @ g.conj().T
            gw = rng.normal(size=(q, q))
            w = gw @ gw.T + 0.2 * np.eye(q)
            res = solve_lmi(*epigraph_instance(z0, w))
            root = psd_sqrt(w)
            expected = float(np.trace(w @ z0.real)) + linalg.trace_norm(root @ z0.imag @ root)
            assert res.status == OPTIMAL
            assert res.pobj == pytest.approx(expected, rel=1e-7, abs=1e-7)

    def test_certificates_at_optimum(self):
        res = solve_lmi(*random_epigraph(1, 3))
        assert res.status == OPTIMAL
        assert res.relgap <= 1e-8
        assert res.dinfeas <= 1e-8
        # weak duality: dual objective is a lower bound
        assert res.dobj <= res.pobj + 1e-7
        # the slack and the dual variable are PSD and complementary
        assert np.linalg.eigvalsh(res.slack).min() > 0
        assert np.linalg.eigvalsh(res.dual).min() > -1e-10
        assert abs(np.tensordot(res.slack, res.dual.conj(), axes=([0, 1], [0, 1])).real) < 1e-6

    @pytest.mark.parametrize("low", [-1e-9, -3.0])
    def test_start_not_strictly_feasible_is_numerical_trouble(self, low):
        """A start with λ_min(F(u0)) < 0 ends at 0 iterations on the slack's
        Cholesky factorization."""
        c, f0, op, _, s0 = random_epigraph(10, 3)
        a, b = np.triu_indices(3)
        v = -f0.real  # Re Z0: F(u) = −i Im Z0, whose spectrum is symmetric about 0
        v += (low - np.linalg.eigvalsh(f0 + op.apply(v[a, b]))[0]) * np.eye(3)
        assert np.linalg.eigvalsh(f0 + op.apply(v[a, b]))[0] == pytest.approx(low, abs=1e-12)
        for max_iter in (0, 200):
            res = solve_lmi(c, f0, op, v[a, b], s0, max_iter=max_iter)
            assert (res.status, res.reason, res.iterations) == (NUMERICAL_TROUBLE, SLACK_CHOLESKY, 0)
            assert np.array_equal(res.u, v[a, b])

    def test_singular_start_at_the_optimum_is_not_optimal(self):
        """min u s.t. [[u, 1], [1, u]] ⪰ 0 started at its optimum u = 1 with the
        optimal dual: the gap and the dual residual are 0, yet the singular
        slack ends the solve before the iterate can count as optimal."""
        res = solve_lmi(np.array([1.0]), np.array([[0, 1], [1, 0]], dtype=complex),
                        DenseOperator(np.array([np.eye(2, dtype=complex)])),
                        u0=np.array([1.0]), s0=np.array([[0.5, -0.5], [-0.5, 0.5]]))
        assert (res.status, res.reason, res.iterations) == (NUMERICAL_TROUBLE, SLACK_CHOLESKY, 0)
        assert res.relgap == 0.0 and res.dinfeas == 0.0

    def test_strictly_feasible_start_takes_no_eigensolve(self, monkeypatch):
        c, f0, op, u0, s0 = random_epigraph(9, 3)
        calls = []
        for name in ("eigvalsh", "eigh"):
            def counting(*args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        res = solve_lmi(c, f0, op, u0, s0, max_iter=0)
        assert res.status == "MaxIterations" and not calls

    def test_max_iterations_status(self):
        res = solve_lmi(*random_epigraph(2, 3), max_iter=2)
        assert res.status == "MaxIterations"
        assert res.gap > 0

    def test_zero_iterations_returns_start(self):
        rng = np.random.default_rng(5)
        c, f0, op, u0, s0 = random_epigraph(5, 3)
        u0 = u0 + 0.1 * rng.normal(size=c.shape[0])
        assert np.linalg.eigvalsh(f0 + op.apply(u0)).min() > 0
        res = solve_lmi(c, f0, op, u0, s0, max_iter=0)
        assert res.status == "MaxIterations" and res.iterations == 0
        assert np.array_equal(res.u, u0)
        assert res.pobj == c @ u0

    def test_rejects_negative_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve_lmi(*epigraph_instance(np.eye(2, dtype=complex), np.eye(2)), max_iter=-1)

    def test_respects_tight_tolerance(self):
        res = solve_lmi(*random_epigraph(3, 4), tol=1e-11)
        assert res.status == OPTIMAL
        assert res.relgap <= 1e-11

    def test_numerical_trouble_names_its_reason(self):
        class NegativeSchur(DenseOperator):
            def schur(self, g):
                return -np.eye(self.n)

        c, f0, op, u0, s0 = random_epigraph(4, 2)
        res = solve_lmi(c, f0, NegativeSchur(op.fs), u0, s0)
        assert res.status == NUMERICAL_TROUBLE
        assert res.reason == SCHUR_CHOLESKY
        assert solve_lmi(c, f0, op, u0, s0).reason == ""

    def test_indefinite_dual_ends_with_nt_eigenvalue(self):
        c, f0, op, u0, _ = random_epigraph(6, 2)
        for s0 in (-5.0 * np.eye(2), np.diag([1.0, -1e-9]), np.zeros((2, 2))):
            res = solve_lmi(c, f0, op, u0, s0)
            assert res.status == NUMERICAL_TROUBLE
            assert res.reason == NT_EIGENVALUE
            assert res.iterations == 0


def positive_definite(rng, n, cond, complex_=True):
    """Random positive definite matrix with condition number ``cond``."""
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
    u, _ = np.linalg.qr(a)
    mat = (u * np.logspace(0.0, -np.log10(cond), n)) @ u.conj().T
    return (mat + mat.conj().T) / 2


class TestTriInv:
    """The recursive Cholesky factor and its inverse against numpy's
    Cholesky factorization and general inverse."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [1, 47, 48, 49, 97, 300])
    def test_residual_within_ten_times_general_inverse(self, n, complex_):
        rng = np.random.default_rng(n + 1000 * complex_)
        eye = np.eye(n)
        for cond in (1e2, 1e8):
            mat = positive_definite(rng, n, cond, complex_)
            low, low_inv = _cholesky_inverse(mat)
            assert low.dtype == low_inv.dtype == mat.dtype
            assert np.linalg.norm(low @ low.conj().T - mat) <= 1e-14 * np.linalg.norm(mat)
            numpy_inv = np.linalg.inv(np.linalg.cholesky(mat))
            assert (np.linalg.norm(low_inv.conj().T @ low_inv @ mat - eye)
                    <= 10 * np.linalg.norm(numpy_inv.conj().T @ numpy_inv @ mat - eye))

    def test_reads_the_lower_triangle_only(self):
        mat = positive_definite(np.random.default_rng(3), 97, 1e3)
        got = _cholesky_inverse(np.tril(mat))
        want = _cholesky_inverse(mat)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_rejects_negative_trailing_schur_complement(self):
        """H = L·D·Lᴴ with one negative entry of D past the first leaf: the
        leading block is positive definite, the trailing Schur complement is not."""
        n = 97
        rng = np.random.default_rng(97)
        low = np.tril(rng.normal(size=(n, n)), -1) + np.eye(n)
        d = np.ones(n)
        d[80] = -1.0
        mat = (low * d) @ low.T
        assert np.linalg.eigvalsh(mat[:48, :48]).min() > 0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mat)
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_inverse(mat)


class TestNtScaling:
    """R⁻¹ from one eigendecomposition scales the slack and the dual to the same diag(λ)."""

    @pytest.mark.parametrize("n", [20, 103])
    @pytest.mark.parametrize("cond_x, cond_s", [(1.0, 1.0), (1e6, 1.0), (1.0, 1e6), (1e3, 1e3), (1e6, 1e6)])
    def test_slack_and_dual_scale_to_diag(self, n, cond_x, cond_s):
        rng = np.random.default_rng(n + int(np.log10(cond_x)) + 10 * int(np.log10(cond_s)))
        for _ in range(2):
            x, s = positive_definite(rng, n, cond_x), positive_definite(rng, n, cond_s)
            lam, r_inv = _nt_scaling(_DenseForms, _cholesky_inverse(x), s)
            assert np.all(lam > 0)
            r = np.linalg.inv(r_inv)
            for got in (r_inv @ x @ r_inv.conj().T, r.conj().T @ s @ r):
                assert np.abs(got - np.diag(lam)).max() <= 1e-11 * lam.max()
