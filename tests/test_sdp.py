import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb import linalg
from qcrb.sdp import (NT_EIGENVALUE, NUMERICAL_TROUBLE, OPTIMAL, SCHUR_CHOLESKY, _cholesky_inverse,
                      _DenseForms, _min_eig_below, _nt_scaling, solve_lmi)
from _support import DenseOperator


def epigraph_instance(z0, w):
    """min tr(W V) s.t. V >= Z0: analytic optimum is known in closed form."""
    q = z0.shape[0]
    fs, c = [], []
    for a in range(q):
        for b in range(a, q):
            e = np.zeros((q, q), dtype=complex)
            e[a, b] = 1.0
            e[b, a] = 1.0
            fs.append(e)
            c.append(w[a, a] if a == b else 2.0 * w[a, b])
    return np.array(c), -z0.astype(complex), DenseOperator(np.array(fs))


class TestSolveLmi:
    def test_scalar_bound(self):
        # min u s.t. [[u, 1], [1, u]] >= 0 has optimum u = 1
        res = solve_lmi(
            np.array([1.0]),
            np.array([[0, 1], [1, 0]], dtype=complex),
            DenseOperator(np.array([np.eye(2, dtype=complex)])),
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
            c, f0, op = epigraph_instance(z0, w)
            res = solve_lmi(c, f0, op)
            root = linalg.psd_sqrt(w)
            expected = float(np.trace(w @ z0.real)) + linalg.trace_norm(root @ z0.imag @ root)
            assert res.status == OPTIMAL
            assert res.pobj == pytest.approx(expected, rel=1e-7, abs=1e-7)

    def test_certificates_at_optimum(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z0 = g @ g.conj().T
        c, f0, op = epigraph_instance(z0, np.eye(3))
        res = solve_lmi(c, f0, op)
        assert res.status == OPTIMAL
        assert res.relgap <= 1e-8
        assert res.pinfeas <= 1e-8
        assert res.dinfeas <= 1e-8
        # weak duality: dual objective is a lower bound
        assert res.dobj <= res.pobj + 1e-7
        # dual variable is PSD and complementary
        assert np.linalg.eigvalsh(res.dual).min() > -1e-10
        assert abs(np.tensordot(res.slack, res.dual.conj(), axes=([0, 1], [0, 1])).real) < 1e-6

    def test_infeasible_start_recovers(self):
        # F(0) is indefinite; the solver must still find the optimum
        res = solve_lmi(
            np.array([1.0]),
            np.array([[-2.0, 0.0], [0.0, -1.0]], dtype=complex),
            DenseOperator(np.array([np.eye(2, dtype=complex)])),
            u0=np.zeros(1),
        )
        assert res.status == OPTIMAL
        assert res.u[0] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("low", [1e-6, 1e-9, 0.0, -3.0])
    def test_start_shift_decision_matches_eigenvalues(self, low):
        """The start is shifted when λ_min < floor, as the eigenvalues decide;
        a Cholesky factorization settles the strictly feasible case."""
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        mat = (u * np.array([2.0, 1.5, 1.0, 0.5, low])) @ u.conj().T
        min_eig = float(np.linalg.eigvalsh(mat).min())
        assert _min_eig_below(mat, 1e-8) == (min_eig if min_eig < 1e-8 else None)

    def test_strictly_feasible_start_takes_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z0 = g @ g.conj().T
        c, f0, op = epigraph_instance(z0, np.eye(3))
        a, b = np.triu_indices(3)
        v = z0.real + (np.linalg.norm(z0, 2) + 1.0) * np.eye(3)  # F(u0) = V − Z0 ⪰ I
        calls = []
        for name in ("eigvalsh", "eigh"):
            def counting(*args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        res = solve_lmi(c, f0, op, u0=v[a, b], max_iter=0)
        assert res.pinfeas == 0.0 and not calls

    def test_max_iterations_status(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z0 = g @ g.conj().T
        c, f0, op = epigraph_instance(z0, np.eye(3))
        res = solve_lmi(c, f0, op, max_iter=2)
        assert res.status == "MaxIterations"
        assert res.gap > 0

    def test_zero_iterations_returns_start(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c, f0, op = epigraph_instance(g @ g.conj().T, np.eye(3))
        u0 = rng.normal(size=c.shape[0])
        res = solve_lmi(c, f0, op, u0=u0, max_iter=0)
        assert res.status == "MaxIterations" and res.iterations == 0
        assert np.array_equal(res.u, u0)
        assert res.pobj == c @ u0

    def test_rejects_negative_max_iter(self):
        c, f0, op = epigraph_instance(np.eye(2, dtype=complex), np.eye(2))
        with pytest.raises(ValueError, match="max_iter"):
            solve_lmi(c, f0, op, max_iter=-1)

    def test_respects_tight_tolerance(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        z0 = g @ g.conj().T
        c, f0, op = epigraph_instance(z0, np.eye(4))
        res = solve_lmi(c, f0, op, tol=1e-11)
        assert res.status == OPTIMAL
        assert res.relgap <= 1e-11

    def test_numerical_trouble_names_its_reason(self):
        class NegativeSchur(DenseOperator):
            def schur(self, g):
                return -np.eye(self.n)

        rng = np.random.default_rng(4)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c, f0, op = epigraph_instance(g @ g.conj().T, np.eye(2))
        res = solve_lmi(c, f0, NegativeSchur(op.fs))
        assert res.status == NUMERICAL_TROUBLE
        assert res.reason == SCHUR_CHOLESKY
        assert solve_lmi(c, f0, op).reason == ""

    def test_indefinite_dual_ends_with_nt_eigenvalue(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c, f0, op = epigraph_instance(g @ g.conj().T, np.eye(2))
        res = solve_lmi(c, f0, op, s0=-5.0 * np.eye(2))  # shifted by I, still indefinite
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
