import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb import holevo, linalg, sdp
from qcrb.bounds import ClosedFormBounds, c_d, c_gs, sandwich
from qcrb.exceptions import InfeasibleModel, VerificationFailed
from qcrb.holevo import EpigraphOperator, solve, verify_solution
from qcrb.model import QuantumModel, fixture
from qcrb.povm import unbiasedness_residual
from qcrb.sld import analyze
from _support import (DenseOperator, direct_holevo_oracle, epigraph_matrices, holevo_objective,
                      random_hermitian, random_model, random_weight)

SZ = np.diag([1.0, -1.0]).astype(complex)


def diag_model(w):
    return QuantumModel(
        dim=2,
        rho=np.diag([(1 + w) / 2, (1 - w) / 2]).astype(complex),
        drho=np.array([np.diag([0.5, -0.5]).astype(complex)]),
        dbeta=np.array([[1.0]]),
        weight=np.array([[1.0]]),
    )


def solve_model(model):
    analysis = analyze(model)
    return solve(analysis, sandwich(analysis))


def captured_operator(model, monkeypatch):
    """The (q, cols) that :func:`solve` hands to :class:`EpigraphOperator`."""
    captured = []

    def recording(q, cols):
        captured.append((q, cols))
        return EpigraphOperator(q, cols)

    solve_with(recording, model, monkeypatch)
    return captured[0]


class TestBuildProblem:
    """How :func:`solve` builds the SDP from a model's analysis."""

    def test_constraint_counting_qubit(self, monkeypatch):
        m = fixture("qubit_xy_at_z", [0.5])
        q, cols = captured_operator(m, monkeypatch)
        # 4 basis coefficients, 1 + p = 3 linear constraints: one free direction
        # per component, whose image X √ρ has d·r = 4 entries
        assert q == 2
        assert cols.shape == (4, 1)

    def test_x0_is_feasible(self):
        """The start point X_eff satisfies the unbiasedness constraints."""
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = random_model(rng, d=3, p=3, q=2, weighted=True)
            assert unbiasedness_residual(m, analyze(m).x_eff) < 1e-8

    def test_reduced_variable_count_for_pure_state(self, monkeypatch):
        m = fixture("pure_qubit_angles", [1.0, 0.2])
        _, cols = captured_operator(m, monkeypatch)
        # support-touching elements only: d^2 - (d-r)^2 = 3 for d=2, r=1, all
        # fixed by the 1 + p = 3 constraints; X √ρ has d·r = 2 entries
        assert cols.shape == (2, 0)

    def test_infeasible_model_rejected(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, d=2, p=2, q=1, singular_j=True)
        kernel = np.linalg.eigh(analyze(m).qfim)[1][:, :1]
        bad = dataclasses.replace(m, dbeta=kernel)
        with pytest.raises(InfeasibleModel):
            analyze(bad)


class TestSolve:
    def test_scalar_model_collapses_to_c_gs(self):
        for w in (0.0, 0.3, 0.8):
            m = diag_model(w)
            sol = solve_model(m)
            assert sol.status == "Optimal"
            assert sol.c_h == pytest.approx(1 - w * w, abs=1e-7)

    def test_commuting_model_collapses_to_c_gs(self):
        m = fixture("classical_diagonal", [0.2, 0.3])
        analysis = analyze(m)
        sol = solve(analysis, sandwich(analysis))
        assert sol.c_h == pytest.approx(c_gs(analysis), abs=1e-7)

    def test_transverse_qubit_within_sandwich(self):
        m = fixture("qubit_xy_at_z", [0.5])
        sol = solve_model(m)
        assert 2.0 - 1e-7 <= sol.c_h <= 3.0 + 1e-7
        assert sol.c_h <= 4.0 + 1e-7

    def test_transverse_qubit_matches_direct_oracle(self):
        rng = np.random.default_rng(2)
        m = fixture("qubit_xy_at_z", [0.5])
        sol = solve_model(m)
        oracle = direct_holevo_oracle(m, rng)
        assert sol.c_h == pytest.approx(oracle, abs=1e-5)

    def test_solution_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            m = random_model(rng, d=3, p=2, q=2, weighted=True)
            sol = solve_model(m)
            assert sol.status == "Optimal"
            assert sol.duality_gap <= 1e-8
            assert sol.dual_residual <= 1e-8
            assert sol.dual_objective <= sol.c_h + 1e-6
            # v_opt dominates Z(x_opt) in the PSD sense
            from qcrb.linalg import z_matrix

            z = z_matrix(sol.x_opt, m.rho)
            assert np.linalg.eigvalsh(sol.v_opt.astype(complex) - z).min() > -1e-8
            assert sol.c_h == pytest.approx(float(np.trace(m.weight @ sol.v_opt)), abs=1e-9)

    def test_kernel_reduction_invariance(self):
        """The kernel×kernel block left out of the SDP changes neither the
        objective nor the constraints."""
        rng, block_rng = np.random.default_rng(4), np.random.default_rng(40)
        for _ in range(5):
            m = random_model(rng, d=3, p=2, q=2, rank=2, weighted=True)
            analysis = analyze(m)
            sol = solve(analysis, sandwich(analysis))
            kern = analysis.eigvecs[:, ~analysis.support]
            shifted = sol.x_opt + np.array(
                [kern @ random_hermitian(block_rng, kern.shape[1]) @ kern.conj().T for _ in sol.x_opt])
            objective = holevo_objective(m, sol.x_opt)
            assert abs(holevo_objective(m, shifted) - objective) <= 1e-12
            assert abs(unbiasedness_residual(m, shifted) - unbiasedness_residual(m, sol.x_opt)) <= 1e-12

    def test_pure_state_matches_direct_oracle(self):
        """Leaving out the kernel directions loses nothing: the oracle searches
        the full basis, kernel×kernel direction included."""
        rng = np.random.default_rng(7)
        m = fixture("pure_qubit_angles", [1.0, 0.2])
        sol = solve_model(m)
        assert sol.status == "Optimal"
        assert sol.c_h == pytest.approx(direct_holevo_oracle(m, rng), abs=1e-5)

    def test_sandwich_on_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(1, min(5, d * d)))
            q = int(rng.integers(1, p + 1))
            m = random_model(rng, d, p, q, weighted=True)
            analysis = analyze(m)
            sol = solve(analysis, sandwich(analysis))
            gs = c_gs(analysis)
            dd = c_d(analysis)
            assert sol.status == "Optimal"
            assert gs - 1e-7 <= sol.c_h <= dd + 1e-7
            assert dd <= 2 * gs + 1e-7


class TestVerifySolution:
    def test_accepts_optimal_solution(self):
        m = fixture("qubit_xy_at_z", [0.3])
        analysis = analyze(m)
        closed = sandwich(analysis)
        sol = solve(analysis, closed)
        report = verify_solution(analysis, sol, closed)
        assert report.objective_deviation < 1e-7
        assert report.unbias_residual < 1e-8
        assert closed.c_gs - 1e-7 <= sol.c_h <= closed.c_d + 1e-7

    def test_rejects_corrupted_minimizer(self):
        m = fixture("qubit_xy_at_z", [0.3])
        analysis = analyze(m)
        sol = solve(analysis, sandwich(analysis))
        corrupted = dataclasses.replace(sol, x_opt=sol.x_opt + 0.05 * SZ)
        with pytest.raises(VerificationFailed):
            verify_solution(analysis, corrupted, sandwich(analysis))

    def test_rejects_closed_forms_below_c_h(self):
        # this model is D-invariant, so c_h = c_d = 2.6; a c_d below c_h breaks the ordering
        analysis = analyze(fixture("qubit_xy_at_z", [0.3]))
        closed = sandwich(analysis)
        sol = solve(analysis, closed)
        low = ClosedFormBounds(c_gs=closed.c_gs, c_d=sol.c_h * (1 - 1e-3))
        with pytest.raises(VerificationFailed, match="bound ordering violated"):
            verify_solution(analysis, sol, low)

    def test_rejects_non_optimal_status(self):
        m = fixture("qubit_xy_at_z", [0.3])
        analysis = analyze(m)
        sol = holevo._solve_sdp(analysis, max_iter=1)
        with pytest.raises(VerificationFailed, match="status"):
            verify_solution(analysis, sol, sandwich(analysis))

    def test_pure_state_saturation(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            theta = rng.uniform(0.4, np.pi - 0.4)
            phi = rng.uniform(0, 2 * np.pi)
            m = fixture("pure_qubit_angles", [theta, phi])
            analysis = analyze(m)
            sol = solve(analysis, sandwich(analysis))
            gs = c_gs(analysis)
            assert sol.c_h / gs == pytest.approx(2.0, abs=1e-4)
            assert c_d(analysis) / gs == pytest.approx(2.0, abs=1e-8)


def equatorial_qubit(rng, q):
    """Full-rank qubit whose two derivatives span the plane orthogonal to its
    Bloch vector (qubit_xy_at_z in a random frame): a D-invariant p = 2 model."""
    r = rng.normal(size=3)
    r *= rng.uniform(0.1, 0.9) / np.linalg.norm(r)
    plane = np.linalg.svd(r[None, :])[2][1:]  # orthonormal rows orthogonal to r
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rho = (np.eye(2) + np.tensordot(r, pauli, axes=1)) / 2
    drho = np.tensordot(rng.normal(size=(2, 2)) @ plane, pauli, axes=1) / 2
    return QuantumModel(dim=2, rho=rho, drho=drho, dbeta=rng.normal(size=(2, q)),
                        weight=random_weight(rng, q))


def short_cut_models():
    """D-invariant models: the four fixtures, random pure qubits (p = 2) and
    random full-rank qubits (p = 3, and p = 2 orthogonal to the Bloch vector)."""
    rng = np.random.default_rng(20)
    models = [fixture("qubit_xy_at_z", [0.5]), fixture("pure_qubit_angles", [1.0, 0.2]),
              fixture("qubit_bloch", [0.1, 0.2, 0.3]), fixture("classical_diagonal", [0.2, 0.3])]
    for q in (1, 2):
        models += [random_model(rng, 2, 2, q, rank=1, weighted=True) for _ in range(3)]
        models += [equatorial_qubit(rng, q) for _ in range(3)]
    for q in (1, 2, 3):
        models += [random_model(rng, 2, 3, q, weighted=True) for _ in range(3)]
    return models


class TestDInvariantShortCut:
    """c_h = c_d at X_eff, with no SDP, on models whose SLD span is 𝒟-invariant."""

    @pytest.mark.parametrize("model", short_cut_models(), ids=lambda m: m.label or None)
    def test_matches_forced_sdp(self, model):
        analysis = analyze(model)
        assert analysis.d_invariance_residual <= holevo.D_INVARIANCE_TOL
        closed = sandwich(analysis)
        sol = solve(analysis, closed)
        assert (sol.method, sol.status, sol.iterations) == (holevo.D_INVARIANT, "Optimal", 0)
        forced = holevo._solve_sdp(analysis)
        assert forced.status == "Optimal" and forced.method == holevo.SDP
        assert abs(sol.c_h - forced.c_h) <= 1e-8 * max(1.0, abs(forced.c_h))

        # the certificate: (x_opt, v_opt) is feasible with objective c_h
        z = linalg.z_matrix(sol.x_opt, model.rho)
        assert np.linalg.eigvalsh(sol.v_opt - z).min() >= -1e-12 * np.linalg.norm(sol.v_opt, 2)
        assert float(np.trace(model.weight @ sol.v_opt)) == pytest.approx(sol.c_h, rel=1e-12)
        assert unbiasedness_residual(model, sol.x_opt) <= holevo.CONSTRAINT_TOL
        verify_solution(analysis, sol, closed)
        # the reported floats are ordered exactly
        assert closed.c_gs <= sol.c_h <= closed.c_d <= 2 * closed.c_gs

    @pytest.mark.parametrize("params", [[1, 3, 2, 2], [2, 3, 4, 3], [3, 4, 3, 2], [4, 2, 2, 2],
                                        [5, 2, 1, 1], [6, 5, 3, 3], [7, 8, 3, 3]])
    def test_random_full_rank_takes_the_sdp(self, params):
        analysis = analyze(fixture("random_full_rank", params))
        assert analysis.d_invariance_residual > 1e-3
        sol = solve(analysis, sandwich(analysis))
        assert sol.method == holevo.SDP and sol.iterations > 0

    def test_full_tangent_space_is_invariant(self):
        """With p = d² − 1 the SLDs span every L with tr ρL = 0, which 𝒟
        preserves (𝒟L has a zero diagonal in ρ's eigenbasis)."""
        analysis = analyze(fixture("random_full_rank", [1, 3, 8, 2]))
        assert analysis.d_invariance_residual <= holevo.D_INVARIANCE_TOL
        assert solve(analysis, sandwich(analysis)).method == holevo.D_INVARIANT

    def test_singular_weight_takes_the_sdp(self):
        model = dataclasses.replace(fixture("qubit_xy_at_z", [0.5]), weight=np.diag([1.0, 0.0]))
        analysis = analyze(model)
        sol = solve(analysis, sandwich(analysis))
        assert sol.method == holevo.SDP and sol.status == "Optimal"


def dense_epigraph(q, cols):
    return DenseOperator(epigraph_matrices(q, cols), q)


def solve_with(operator, model, monkeypatch):
    """Solve ``model`` with ``operator(q, cols)`` in place of EpigraphOperator."""
    monkeypatch.setattr(holevo, "EpigraphOperator", operator)
    return holevo._solve_sdp(analyze(model))


class TestEpigraphOperator:
    """The structured operator against the dense matrices written out one by one."""

    @pytest.mark.parametrize("d, rank, p, q", [
        (2, 2, 3, 3),  # qubit, p = d² − 1: no free direction (m = 0)
        (3, 3, 2, 1),
        (3, 1, 2, 2),  # rank-deficient: d·r = 3 < d² = 9
        (4, 2, 4, 3),
        (3, 3, 8, 8),  # the p = q = 8 kind of the benchmark: 36 V rows, no x block
        (4, 2, 8, 8),  # 36 V rows and a smaller x block (q·m = 24)
    ])
    def test_matches_dense(self, d, rank, p, q, monkeypatch):
        rng = np.random.default_rng(10 * d + rank)
        q_, cols = captured_operator(random_model(rng, d, p, q, rank=rank, weighted=True), monkeypatch)
        assert q_ == q and cols.shape[0] == d * rank
        assert (cols.shape[1] == 0) == (p == d * d - 1)
        op, dense = EpigraphOperator(q, cols), dense_epigraph(q, cols)
        assert op.n == dense.n
        size = q + cols.shape[0]
        for _ in range(3):
            a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            g = a @ a.conj().T + 0.1 * np.eye(size)
            t = a + a.conj().T
            u = rng.normal(size=op.n)
            for got, want in ((op.apply(u), dense.apply(u)), (op.adjoint(t), dense.adjoint(t)),
                              (op.schur(g), dense.schur(g))):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d, rank", [(2, 2), (2, 1), (4, 4), (4, 2), (6, 6), (6, 3)])
    def test_solve_agrees_with_dense(self, d, rank, monkeypatch):
        rng = np.random.default_rng(100 + 10 * d + rank)
        p = q = 2 if d == 2 else 3
        model = random_model(rng, d, p, q, rank=rank, weighted=True)
        structured = solve_with(EpigraphOperator, model, monkeypatch)
        dense = solve_with(dense_epigraph, model, monkeypatch)
        assert structured.status == dense.status == "Optimal"
        assert structured.iterations == dense.iterations
        assert abs(structured.c_h - dense.c_h) <= 1e-10 * abs(dense.c_h)
        # At the stopping gap (~5e-9) the minimizer is fixed less tightly than
        # c_h: two dense forms of the same Schur matrix (Gram and trace) give
        # x_opt differing by up to 3.5e-10 relative on these instances.
        assert np.linalg.norm(structured.x_opt - dense.x_opt) <= 1e-9 * np.linalg.norm(dense.x_opt)

    @pytest.mark.parametrize("tau", [0.0, 0.3])
    @pytest.mark.parametrize("d, rank, p, q", [
        (3, 3, 2, 1),
        (3, 1, 2, 1),  # rank-deficient: d·r = 3
        (4, 4, 4, 3),
        (4, 2, 4, 3),
        (6, 6, 3, 3),  # N = 39, a size at which solve_lmi uses these methods
    ])
    def test_factor_and_max_step_match_dense(self, d, rank, p, q, tau, monkeypatch):
        rng = np.random.default_rng(1000 + 10 * d + rank)
        _, cols = captured_operator(random_model(rng, d, p, q, rank=rank, weighted=True), monkeypatch)
        op, dense = EpigraphOperator(q, cols), dense_epigraph(q, cols)
        d_r = cols.shape[0]
        size = q + d_r
        eye = np.eye(size)
        for _ in range(3):
            # a slack F(u) + τI of the form solve_lmi holds: F0 = [[0, M0ᴴ], [M0, I]]
            f0 = np.zeros((size, size), dtype=complex)
            f0[q:, :q] = rng.normal(size=(d_r, q)) + 1j * rng.normal(size=(d_r, q))
            f0[:q, q:] = f0[q:, :q].conj().T
            f0[q:, q:] = np.eye(d_r)
            u = 0.3 * rng.normal(size=op.n)
            a, b = np.triu_indices(q)
            u[:a.size] += np.where(a == b, 2.0 + np.linalg.norm(f0[q:, :q]) ** 2, 0.0)
            x = f0 + op.apply(u) + tau * eye
            assert np.linalg.eigvalsh(x).min() > 0

            low, low_inv = op.factor(x)
            assert np.abs(low @ low.conj().T - x).max() <= 1e-12 * np.abs(x).max()
            assert np.abs(low @ low_inv - eye).max() <= 1e-12

            _, dense_inv = dense.factor(x)
            for scale in (0.1, 1.0, 10.0):
                dx = op.apply(scale * rng.normal(size=op.n)) - tau * eye
                want = dense.scaled_extremes(dense_inv, dx)
                assert np.isfinite(sdp._step_length(want[0]))
                got = op.scaled_extremes(low_inv, dx)
                assert got == pytest.approx(want, rel=1e-10)
                assert sdp._step_length(got[0]) == pytest.approx(sdp._step_length(want[0]), rel=1e-10)

            # a direction that only grows the slack: unbounded without a shift,
            # limited by the vanishing τI otherwise
            du = np.zeros(op.n)
            du[:a.size] = np.where(a == b, 1.0, 0.0)
            dx = op.apply(du) - tau * eye
            got, want = op.scaled_extremes(low_inv, dx), dense.scaled_extremes(dense_inv, dx)
            assert got[1] == pytest.approx(want[1], rel=1e-10)
            if tau == 0.0:  # dx ⪰ 0, with N − q zero eigenvalues
                assert sdp._step_length(got[0]) == np.inf
                assert sdp._step_length(want[0]) > 1e12  # the dense eigenvalues straddle 0 at roundoff
            else:
                assert got[0] == pytest.approx(want[0], rel=1e-10)

    def test_factor_rejects_indefinite_slack(self):
        op = EpigraphOperator(1, np.ones((2, 1), dtype=complex))
        x = np.eye(3, dtype=complex)
        x[1:, 0] = x[0, 1:] = 1.0  # V − MᴴM = 1 − 2 < 0
        with pytest.raises(np.linalg.LinAlgError):
            op.factor(x)

    def test_structured_route_matches_dense_route(self, monkeypatch):
        """solve_lmi's two ways to factor the slack and take the primal step
        give the same iterates."""
        model = fixture("random_full_rank", [3, 4, 4, 3])  # N = 19
        analysis = analyze(model)
        monkeypatch.setattr(sdp, "_STRUCTURED_MIN", 0)
        structured = holevo._solve_sdp(analysis)
        monkeypatch.setattr(sdp, "_STRUCTURED_MIN", 10 ** 9)
        dense = holevo._solve_sdp(analysis)
        assert structured.status == dense.status == "Optimal"
        assert structured.iterations == dense.iterations
        assert abs(structured.c_h - dense.c_h) <= 1e-10 * abs(dense.c_h)

    def test_operator_calls_per_iteration(self, monkeypatch):
        """Three adjoint and three apply calls per iteration, plus one each at the start."""
        calls = {"apply": 0, "adjoint": 0}

        class Counting(EpigraphOperator):
            def apply(self, u):
                calls["apply"] += 1
                return super().apply(u)

            def adjoint(self, mat):
                calls["adjoint"] += 1
                return super().adjoint(mat)

        sol = solve_with(Counting, fixture("random_full_rank", [3, 4, 3, 2]), monkeypatch)
        assert sol.status == "Optimal" and sol.iterations == 9
        # the predictor's right-hand side is −c: no adjoint call
        assert calls == {"apply": 3 * sol.iterations + 1, "adjoint": 2 * sol.iterations + 1}

    @pytest.mark.parametrize("params, structured", [
        ([3, 5, 8, 8], False),  # q = 8, N = 33: the dense route is cheaper
        ([3, 6, 3, 3], True),   # q = 3, N = 39
        ([3, 5, 3, 1], True),   # q = 1, N = 26
        ([3, 4, 3, 1], False),  # q = 1, N = 17
    ])
    def test_route_by_size_and_targets(self, params, structured, monkeypatch):
        """The structured slack factor is used only where it costs less: its
        fixed cost grows with q, the dense one with N."""
        calls = []

        class Counting(EpigraphOperator):
            def factor(self, x):
                calls.append(x.shape[0])
                return super().factor(x)

        sol = solve_with(Counting, fixture("random_full_rank", params), monkeypatch)
        assert sol.status == "Optimal"
        assert len(calls) == (sol.iterations if structured else 0)

    @pytest.mark.parametrize("threshold", [0, 10 ** 9])
    def test_predictor_dual_step_from_primal_extremes(self, threshold, monkeypatch):
        """On every iterate of a solve, on both routes, 1/(1 + λ_max) of the
        predictor's scaled primal direction dlx equals the boundary step of
        its dual direction −Λ − dlx."""
        monkeypatch.setattr(sdp, "_STRUCTURED_MIN", threshold)
        scalings, calls = [], []  # calls: (Λ, dlx, extremes), three per iteration
        nt_scaling, scaled_extremes = sdp._nt_scaling, sdp._scaled_extremes

        def recording_scaling(lx, lx_inv, dual):
            scalings.append(nt_scaling(lx, lx_inv, dual))
            return scalings[-1]

        def recording_extremes(lam, delta):
            calls.append((lam, delta, scaled_extremes(lam, delta)))
            return calls[-1][2]

        class Recording(EpigraphOperator):
            def scaled_extremes(self, low_inv, dx):
                lam, r_inv = scalings[-1]
                calls.append((lam, sdp._herm(r_inv @ dx @ r_inv.conj().T),
                              super().scaled_extremes(low_inv, dx)))
                return calls[-1][2]

        monkeypatch.setattr(sdp, "_nt_scaling", recording_scaling)
        monkeypatch.setattr(sdp, "_scaled_extremes", recording_extremes)
        sol = solve_with(Recording, fixture("random_full_rank", [3, 5, 3, 3]), monkeypatch)
        assert sol.status == "Optimal"
        assert len(calls) == 3 * sol.iterations  # predictor, corrector primal, corrector dual
        for lam, dlx_aff, (_, k_max) in calls[::3]:
            old = min(1.0, sdp._boundary_step(lam, -np.diag(lam) - dlx_aff))
            new = 1.0 / (1.0 + k_max) if k_max > 0 else 1.0
            assert new == pytest.approx(old, rel=1e-10)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_structured_products_match_dense_on_every_iterate(self, shifted, monkeypatch):
        """Each product the structured route takes from the operator's block
        forms equals its dense form on every iterate of a solve, from a
        strictly feasible start (τ = 0) and from a shifted one (τ > 0).

        The bound is relative to the product of the factors' norms, the scale
        at which both forms round: near the optimum a congruence cancels to
        far below it (LxᴴSLx to 1e-9 of it here) in either form alike.
        """
        calls = dict.fromkeys(["factor_congruence", "times_factor_inv", "congruence", "adjoint_congruence"], 0)
        taus = []

        class Checking(EpigraphOperator):
            def __init__(self, q, cols):
                super().__init__(q, cols)
                self.dense = dense_epigraph(q, cols)

            def compare(self, name, args, factors):
                got = getattr(super(), name)(*args)
                want = getattr(self.dense, name)(*args)
                scale = np.prod([np.linalg.norm(f, 2) for f in factors])
                assert np.abs(got - want).max() <= 1e-12 * scale
                calls[name] += 1
                return got

            def factor(self, x):
                taus.append(x[self.q, self.q].real - 1.0)  # the lower-right block is (1 + τ)I
                return super().factor(x)

            def factor_congruence(self, low, mat):
                return self.compare("factor_congruence", (low, mat), (low, mat, low))

            def times_factor_inv(self, mat, low_inv):
                return self.compare("times_factor_inv", (mat, low_inv), (mat, low_inv))

            def congruence(self, a, t):
                return self.compare("congruence", (a, t), (a, t, a))

            def adjoint_congruence(self, a, y):
                return self.compare("adjoint_congruence", (a, y), (a, y, a, self.cols))

        monkeypatch.setattr(sdp, "_STRUCTURED_MIN", 0)
        if shifted:
            rng = np.random.default_rng(7)
            q, d_r, m = 2, 6, 3
            op = Checking(q, rng.normal(size=(d_r, m)) + 1j * rng.normal(size=(d_r, m)))
            f0 = np.zeros((q + d_r,) * 2, dtype=complex)
            f0[q:, :q] = rng.normal(size=(d_r, q)) + 1j * rng.normal(size=(d_r, q))
            f0[:q, q:] = f0[q:, :q].conj().T
            f0[q:, q:] = np.eye(d_r)
            a, b = np.triu_indices(q)
            res = sdp.solve_lmi(np.concatenate([np.where(a == b, 1.0, 0.0), np.zeros(q * m)]), f0, op)
            status, iterations = res.status, res.iterations
            assert taus[0] > 0
        else:
            sol = solve_with(Checking, fixture("random_full_rank", [3, 5, 3, 3]), monkeypatch)
            status, iterations = sol.status, sol.iterations
            assert max(taus) == 0.0
        assert status == "Optimal"
        assert calls == {"factor_congruence": iterations, "times_factor_inv": iterations,
                         "congruence": 2 * iterations, "adjoint_congruence": iterations}

    def test_shifted_start_on_both_routes(self, monkeypatch):
        """From an infeasible start (τ > 0) both routes reach the closed-form optimum.

        min tr V subject to V ⪰ M(y)ᴴM(y), M(y) = M0 + C·Y over real Y, is the
        least-squares distance min ‖M0 + C·Y‖_F² when C and M0 are real (V is
        real, so a complex M(y)ᴴM(y) would add its trace norm of Im).
        """
        rng = np.random.default_rng(7)
        q, d_r, m = 2, 6, 3
        cols = rng.normal(size=(d_r, m)).astype(complex)
        m0 = rng.normal(size=(d_r, q)).astype(complex)
        op = EpigraphOperator(q, cols)
        f0 = np.zeros((q + d_r,) * 2, dtype=complex)
        f0[q:, :q], f0[:q, q:], f0[q:, q:] = m0, m0.conj().T, np.eye(d_r)
        a, b = np.triu_indices(q)
        c = np.concatenate([np.where(a == b, 1.0, 0.0), np.zeros(q * m)])
        y, *_ = np.linalg.lstsq(cols.real, -m0.real, rcond=None)
        expected = np.linalg.norm(m0 + cols @ y) ** 2
        results = []
        for threshold in (0, 10 ** 9):
            monkeypatch.setattr(sdp, "_STRUCTURED_MIN", threshold)
            res = sdp.solve_lmi(c, f0, op)  # V = 0 start: the slack is indefinite
            assert res.status == "Optimal"
            assert res.pobj == pytest.approx(expected, rel=1e-7)
            results.append(res)
        assert results[0].iterations == results[1].iterations
        assert results[0].pobj == pytest.approx(results[1].pobj, rel=1e-10)
