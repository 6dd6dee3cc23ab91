import dataclasses
import importlib.util
import pathlib
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb import holevo, linalg, sdp
from qcrb.bounds import ClosedFormBounds, c_d, c_gs, sandwich
from qcrb.exceptions import InfeasibleModel, VerificationFailed
from qcrb.holevo import EpigraphOperator, solve, verify_solution
from qcrb.model import QuantumModel, fixture, model_from_dict, validate
from qcrb.povm import unbiasedness_residual
from qcrb.sld import analyze
from _support import (DenseOperator, direct_holevo_oracle, epigraph_matrices, holevo_objective,
                      random_hermitian, random_model, random_truncated_j_models, random_weight,
                      rotated_weight, truncated_j_model)

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

    @pytest.mark.parametrize("model", [
        fixture("random_full_rank", [3, 4, 3, 1]),  # full rank
        random_model(np.random.default_rng(41), 4, 3, 2, rank=2, weighted=True),  # rank-deficient
        random_model(np.random.default_rng(42), 3, 2, 1, rank=1),  # pure state
    ], ids=["full-rank", "rank-deficient", "pure"])
    def test_directions(self, model):
        """Every feasible direction is Hermitian, orthonormal, orthogonal to
        rho and to every drho_j, and zero on the kernel×kernel block."""
        analysis = analyze(model)
        vecs, kernel = analysis.eigvecs, ~analysis.support
        directions = vecs @ holevo._feasible_directions(analysis) @ vecs.conj().T
        r, k = np.count_nonzero(analysis.support), np.count_nonzero(kernel)
        # r² + 2rk coordinates, less one constraint for rho and one per independent drho_j
        assert directions.shape == (r * r + 2 * r * k - 1 - model.n_params, model.dim, model.dim)
        assert np.abs(directions - directions.conj().transpose(0, 2, 1)).max() <= 1e-15
        gram = np.einsum("lab,mba->lm", directions, directions)
        assert np.abs(gram - np.eye(len(directions))).max() <= 1e-14
        for op in (model.rho, *model.drho):
            assert np.abs(np.einsum("ab,lba->l", op, directions)).max() <= 1e-14 * max(1.0, np.abs(op).max())
        kernel_block = vecs[:, kernel].conj().T @ directions @ vecs[:, kernel]
        assert not kernel_block.size or np.abs(kernel_block).max() <= 1e-15

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
            assert sol.dual_objective <= sol.c_h + 1e-6
            # c_h is attained: the nonsmooth objective at x_opt recomputed from the model
            tol = 1e-9 if sol.method == holevo.SDP else 1e-12 * sol.c_h
            assert abs(holevo_objective(m, sol.x_opt) - sol.c_h) <= tol

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

        # the certificate: the nonsmooth objective at the unbiased x_opt is c_h
        assert holevo_objective(model, sol.x_opt) == pytest.approx(sol.c_h, rel=1e-12)
        assert unbiasedness_residual(model, sol.x_opt) <= holevo.CONSTRAINT_TOL
        verify_solution(analysis, sol, closed)
        # the reported floats are ordered exactly
        assert closed.c_gs <= sol.c_h <= closed.c_d <= 2 * closed.c_gs

    @pytest.mark.parametrize("params", [[1, 3, 2, 2], [2, 3, 4, 3], [3, 4, 3, 2], [4, 2, 2, 2],
                                        [5, 2, 1, 1], [6, 5, 3, 3], [7, 8, 3, 3]])
    def test_random_full_rank_takes_the_sdp(self, params):
        """Models that are not D-invariant are solved, not short-cut: by the
        dual when q ≥ 2, by the SDP when q = 1."""
        analysis = analyze(fixture("random_full_rank", params))
        assert analysis.d_invariance_residual > 1e-3
        sol = solve(analysis, sandwich(analysis))
        assert sol.method == (holevo.DUAL if params[3] >= 2 else holevo.SDP) and sol.iterations > 0

    def test_full_tangent_space_is_invariant(self):
        """With p = d² − 1 the SLDs span every L with tr ρL = 0, which 𝒟
        preserves (𝒟L has a zero diagonal in ρ's eigenbasis)."""
        analysis = analyze(fixture("random_full_rank", [1, 3, 8, 2]))
        assert analysis.d_invariance_residual <= holevo.D_INVARIANCE_TOL
        assert solve(analysis, sandwich(analysis)).method == holevo.D_INVARIANT

    def test_singular_weight_takes_the_sdp(self):
        """A D-invariant model takes the short cut whatever its W; a singular
        W in a rotated frame reaches the SDP on a dual hand-back (a pure q = 3
        model, q′ = 2)."""
        model = dataclasses.replace(fixture("qubit_xy_at_z", [0.5]), weight=np.diag([1.0, 0.0]))
        analysis = analyze(model)
        sol = solve(analysis, sandwich(analysis))
        assert sol.method == holevo.D_INVARIANT and sol.status == "Optimal"
        weight = np.eye(3)
        weight[:2, :2] = rotated_weight(0.0, 0.7)
        model = random_model(np.random.default_rng(3), 3, 3, 3, rank=1)
        analysis = analyze(dataclasses.replace(model, weight=weight))
        sol = solve(analysis, sandwich(analysis))
        assert sol.method == holevo.SDP and sol.status == "Optimal"


def dual_models():
    """Models that are not D-invariant, with q ≥ 2: full rank, rank-deficient,
    singular J and random W."""
    rng = np.random.default_rng(30)
    return [fixture("random_full_rank", [1, 3, 2, 2]), fixture("random_full_rank", [7, 8, 3, 3]),
            fixture("random_full_rank", [2, 3, 4, 3]), random_model(rng, 4, 3, 2, rank=2),
            random_model(rng, 4, 3, 3, rank=2, weighted=True),
            random_model(rng, 3, 3, 2, singular_j=True, weighted=True),
            random_model(rng, 5, 4, 3, weighted=True)]


def dual_of(model):
    analysis = analyze(model)
    return analysis, holevo._Dual(analysis)


def random_inside(rng, q, radius):
    """Upper triangle of a random q×q antisymmetric A with ‖A‖ = ``radius``."""
    a = np.triu(rng.normal(size=(q, q)), 1)
    a *= radius / np.linalg.norm(a - a.T, 2)
    return a[np.triu_indices(q, 1)]


def benchmark_large_q3_models():
    """The p = q = 3 models of the benchmark's ``large_models`` workload
    (d = 8, 10 and 12), generated by ``perfbench/inputs.py`` in their own frame."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(inputs)
    return [model_from_dict(inputs.model_dict(kind.arrays(instance), f"{kind.name}/{instance}"))
            for kind, instance in inputs.LARGE_SLOTS if kind.q == 3]


def small_dual_models():
    """Random d ≤ 4 models that the dual solves: full rank and rank-deficient,
    q = 2 and 3, identity and random W."""
    rng = np.random.default_rng(34)
    models = [random_model(rng, d, p, q, rank=rank, weighted=weighted)
              for d, rank in ((2, 2), (3, 3), (3, 2), (4, 4), (4, 2))
              for p, q in ((2, 2), (3, 2), (3, 3)) for weighted in (False, True)]
    return [m for m in models if solve_model(m).method == holevo.DUAL]


class TestDual:
    """c_h = max f(K), climbed by Newton's method in :func:`holevo._solve_dual`."""

    @pytest.mark.parametrize("model", dual_models())
    def test_f_at_zero_is_c_gs(self, model):
        analysis, dual = dual_of(model)
        closed = sandwich(analysis)
        pt = dual.point(np.zeros(dual.tri[0].size))
        assert pt.value == pytest.approx(closed.c_gs, rel=1e-13)
        assert pt.upper == pytest.approx(closed.c_d, rel=1e-13)
        x0 = holevo._lift(analysis, pt.xi)
        assert np.abs(x0 - analysis.x_eff).max() <= 1e-12 * np.abs(analysis.x_eff).max()

    @pytest.mark.parametrize("model", dual_models())
    def test_derivatives_match_central_differences(self, model):
        _, dual = dual_of(model)
        rng = np.random.default_rng(31)
        n, h = dual.tri[0].size, 1e-6
        a = random_inside(rng, dual.q, 0.5)
        pt = dual.point(a)
        steps = h * np.eye(n)
        grad = [(dual.point(a + e).value - dual.point(a - e).value) / (2 * h) for e in steps]
        hess = [(dual.point(a + e).gradient - dual.point(a - e).gradient) / (2 * h) for e in steps]
        scale = abs(pt.value)
        assert np.abs(pt.gradient - grad).max() <= 1e-7 * scale
        assert np.abs(dual.hessian(pt) - np.array(hess)).max() <= 1e-6 * scale
        # f is concave: the Hessian is negative semidefinite
        assert np.linalg.eigvalsh(dual.hessian(pt)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("model", dual_models())
    def test_f_is_a_lower_bound(self, model):
        """Weak duality: f(K) ≤ c_h at every feasible K."""
        analysis, dual = dual_of(model)
        c_h = holevo._solve_sdp(analysis, tol=1e-12).c_h
        rng = np.random.default_rng(32)
        for radius in (0.1, 0.5, 0.9, 0.999):
            for _ in range(3):
                assert dual.point(random_inside(rng, dual.q, radius)).value <= c_h * (1 + 1e-12)

    @pytest.mark.parametrize("model", dual_models())
    def test_matches_tight_sdp(self, model):
        analysis = analyze(model)
        closed = sandwich(analysis)
        sol = solve(analysis, closed, tol=1e-10)
        assert (sol.method, sol.status) == (holevo.DUAL, "Optimal") and sol.iterations > 0
        reference = holevo._solve_sdp(analysis, tol=1e-12)
        assert abs(sol.c_h - reference.c_h) <= 1e-9 * reference.c_h
        # the certified bracket (its ends may cross by roundoff), and the
        # certificate x_opt at its upper end
        assert sol.dual_objective <= sol.c_h * (1 + 1e-14)
        assert sol.duality_gap == pytest.approx((sol.c_h - sol.dual_objective) / sol.c_h, abs=1e-16)
        assert sol.duality_gap <= 1e-10
        assert holevo_objective(model, sol.x_opt) == pytest.approx(sol.c_h, rel=1e-12)
        assert unbiasedness_residual(model, sol.x_opt) <= holevo.CONSTRAINT_TOL
        verify_solution(analysis, sol, closed)
        assert closed.c_gs <= sol.dual_objective and sol.c_h <= closed.c_d

    def test_pure_state_falls_back_to_the_sdp(self):
        """A pure state's maximizer lies on ‖A‖ = 1, K = RARᵀ: the first Newton
        step leaves the open set and the SDP's own result is returned."""
        model = random_model(np.random.default_rng(33), 3, 3, 3, rank=1)
        analysis = analyze(model)
        assert analysis.d_invariance_residual > holevo.D_INVARIANCE_TOL
        sol = solve(analysis, sandwich(analysis))
        forced = holevo._solve_sdp(analysis)
        assert sol.method == holevo.SDP
        for field in dataclasses.fields(sol):
            assert np.array_equal(getattr(sol, field.name), getattr(forced, field.name)), field.name

    def test_max_iter_hands_over(self):
        analysis = analyze(fixture("random_full_rank", [3, 4, 3, 2]))  # closes in 4 steps
        closed = sandwich(analysis)
        assert solve(analysis, closed, max_iter=4).method == holevo.DUAL
        sol = solve(analysis, closed, max_iter=3)
        assert (sol.method, sol.status, sol.iterations) == (holevo.SDP, "MaxIterations", 3)

    def test_rejects_crossed_bracket(self):
        analysis = analyze(fixture("random_full_rank", [3, 3, 2, 2]))
        closed = sandwich(analysis)
        sol = solve(analysis, closed)
        assert sol.method == holevo.DUAL
        verify_solution(analysis, sol, closed)
        crossed = dataclasses.replace(sol, dual_objective=sol.c_h * (1 + 1e-6))
        with pytest.raises(VerificationFailed, match="dual bracket crossed"):
            verify_solution(analysis, crossed, closed)

    @pytest.mark.parametrize("rank", [0, 1])
    def test_at_most_one_weighted_target(self, rank):
        """With q′ = rank W ≤ 1 the dual has no variable: c_h = c_d = f(0) = c_gs
        at X_eff in no step, even at tol 0; c_d keeps the ordering exact."""
        weight = rank * rotated_weight(0.0, 0.7)
        analysis = analyze(dataclasses.replace(fixture("random_full_rank", [3, 3, 3, 2]), weight=weight))
        assert analysis.weight_factor.shape == (2, rank)
        closed = sandwich(analysis)
        for tol in (1e-8, 0.0):
            sol = solve(analysis, closed, tol=tol)
            assert (sol.method, sol.iterations, sol.c_h) == (holevo.DUAL, 0, closed.c_d)
            assert sol.c_h == pytest.approx(closed.c_gs, rel=1e-12) and sol.x_opt is analysis.x_eff
            verify_solution(analysis, sol, closed)


class TestTruncatedJ:
    """A ``rank_tol`` that drops an eigenvalue of J above roundoff drops no
    unbiasedness constraint: the dual is built on J's range above roundoff,
    reads dbeta as JJ⁺dbeta, and agrees with the SDP, which keeps every drho_j."""

    @staticmethod
    def route_against_tight_sdp(analysis):
        """The route of ``analysis`` at tol 1e-12, after checking that it
        verifies at the default tol and at 1e-12, and lies within 1e-9
        relative of the SDP at 1e-12 wherever that converges."""
        assert analysis.qfim_range.shape[1] == 3 and not analysis.dbeta_range[0].any()
        closed = sandwich(analysis)
        for tol in (1e-8, 1e-12):
            sol = solve(analysis, closed, tol=tol)
            verify_solution(analysis, sol, closed)
        reference = holevo._solve_sdp(analysis, tol=1e-12)
        if reference.status == "Optimal":
            assert abs(sol.c_h - reference.c_h) <= 1e-9 * reference.c_h
        return sol.method

    @pytest.mark.parametrize("weight", [np.eye(2), np.diag([1.0, 0.0]), rotated_weight(0.0, 0.7),
                                        rotated_weight(0.3, 0.7)],
                             ids=["identity", "rank_1", "rank_1_rotated", "rotated"])
    def test_truncated_j_model_takes_the_dual(self, weight):
        analysis = analyze(truncated_j_model(weight), rank_tol=1e-3)
        assert np.linalg.matrix_rank(analysis.qfim_pinv, tol=1e-6) == 2
        assert self.route_against_tight_sdp(analysis) == holevo.DUAL

    def test_random_truncated_models(self):
        """The first 60 draws of the random truncated models (full-rank rho,
        q = 2): the dual closes on all but five, which it hands back."""
        routes = [self.route_against_tight_sdp(analyze(model, rank_tol))
                  for model, rank_tol in random_truncated_j_models(60)]
        assert [i for i, route in enumerate(routes) if route != holevo.DUAL] == [8, 36, 47, 56, 58]

    def test_ill_conditioned_j_is_estimable(self):
        """J's eigenvalues 8.6e-10 : 0.16 : 1, none dropped at the default
        rank_tol, and dbeta on the top two eigenvectors: estimable.  The
        verdict reads dbeta along the eigenvectors that rank_tol drops; the
        residual J J⁺ dbeta − dbeta, whose roundoff grows as eps·cond(J),
        refused both columns."""
        analysis = analyze(truncated_j_model(np.eye(2), small=1e-4))
        vals = np.linalg.eigvalsh(analysis.qfim)
        assert vals[0] / vals[-1] == pytest.approx(8.6e-10, rel=0.01)
        closed = sandwich(analysis)
        sol = solve(analysis, closed)
        assert sol.method == holevo.DUAL
        verify_solution(analysis, sol, closed)
        assert sol.c_h == pytest.approx(0.0814821584, rel=1e-9)

    def test_dbeta_component_along_a_dropped_eigenvector(self):
        """J's eigenvalues 8.6e-12 : 0.16 : 1, and the default rank_tol drops
        the smallest, which lies above roundoff.  A dbeta component of 1e-9
        along its eigenvector passes the estimability test (FEASIBILITY_TOL
        1e-8).  The dual reads JJ⁺dbeta, the dbeta that X_eff serves, so 𝒥⁻¹
        does not magnify the component by 1/λ, and c_h does not move."""
        model = truncated_j_model(np.eye(2), small=1e-5)
        analysis = analyze(model)
        vals, vecs = np.linalg.eigh(analysis.qfim)
        assert vals[0] / vals[-1] == pytest.approx(8.6e-12, rel=0.01)
        dbeta = np.array(model.dbeta)
        dbeta[:, 0] += 1e-9 * vecs[:, 0]
        tilted = analyze(dataclasses.replace(model, dbeta=dbeta))
        assert tilted.qfim_range.shape[1] == 3 and not tilted.dbeta_range[0].any()
        closed = sandwich(tilted)
        sol = solve(tilted, closed)
        assert sol.method == holevo.DUAL and sol.c_h <= closed.c_d
        verify_solution(tilted, sol, closed)
        assert sol.c_h == pytest.approx(solve(analysis, sandwich(analysis)).c_h, rel=1e-12)


class TestDualCertificate:
    """The dual's certificate is its minimizer ``x_opt``;
    :func:`verify_solution` recomputes Z from ``x_opt`` and the model."""

    @pytest.mark.parametrize("model", benchmark_large_q3_models() + small_dual_models(),
                             ids=lambda m: m.label or f"d{m.dim}q{m.n_targets}")
    def test_v_matches_epigraph_v_of_z_at_x_opt(self, model):
        """The epigraph V of Z(x_opt) is fixed by x_opt, and tr W V is the
        nonsmooth objective at x_opt, so that objective must match c_h."""
        analysis = analyze(model)
        sol = solve(analysis, sandwich(analysis))
        assert sol.method == holevo.DUAL and sol.iterations > 0
        assert holevo_objective(model, sol.x_opt) == pytest.approx(sol.c_h, rel=1e-12)

    @pytest.mark.parametrize("direction, message", [
        ("feasible", "nonsmooth objective"),  # still unbiased: only the recomputed Z tells
        ("identity", "local unbiasedness"),  # Z moves by δ², Tr ρX_0 by δ
    ])
    def test_verify_rejects_perturbed_minimizer(self, direction, message):
        analysis = analyze(fixture("random_full_rank", [7, 8, 3, 3]))
        closed = sandwich(analysis)
        sol = solve(analysis, closed)
        assert sol.method == holevo.DUAL
        verify_solution(analysis, sol, closed)
        vecs = analysis.eigvecs
        if direction == "feasible":
            feasible = vecs @ holevo._feasible_directions(analysis)[0] @ vecs.conj().T
            step = 0.1 * np.abs(sol.x_opt).max() * feasible
        else:
            step = 1e-7 * np.eye(analysis.model.dim)
        x_opt = sol.x_opt.copy()
        x_opt[0] += step
        with pytest.raises(VerificationFailed, match=message):
            verify_solution(analysis, dataclasses.replace(sol, x_opt=x_opt), closed)


class TestOneAnalysis:
    """Each model's rho, J and W are diagonalized once: rho and W where
    :func:`validate` first needs them, J by :func:`analyze`; every later
    consumer reads those results.  A J that ``rank_tol`` truncates is no
    exception: the dual reads its range above roundoff from the same
    decomposition."""

    @pytest.mark.parametrize("model, rank_tol, method", [
        (random_model(np.random.default_rng(43), 4, 3, 2, weighted=True), linalg.DEFAULT_RANK_TOL, holevo.DUAL),
        (random_model(np.random.default_rng(44), 4, 3, 1, weighted=True), linalg.DEFAULT_RANK_TOL, holevo.SDP),
        (fixture("qubit_bloch", [0.1, 0.2, 0.3]), linalg.DEFAULT_RANK_TOL, holevo.D_INVARIANT),
        (truncated_j_model(rotated_weight(0.3, 0.7)), 1e-3, holevo.DUAL),
    ], ids=["dual", "sdp", "d_invariant", "truncated_dual"])
    def test_j_and_w_decomposed_once(self, model, rank_tol, method, monkeypatch):
        rho, weight = linalg.hermitian_part(model.rho), model.weight
        qfim = analyze(dataclasses.replace(model), rank_tol).qfim
        model = dataclasses.replace(model)  # a copy that nothing has decomposed yet
        seen = []
        for name in ("eigh", "eigvalsh"):
            def recording(a, *args, _original=getattr(np.linalg, name), **kwargs):
                seen.append(np.asarray(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)

        def decompositions(target):
            return sum(1 for a in seen if a.shape == target.shape and np.array_equal(a, target))

        validate(model)  # the boundary check of the model file: rho ⪰ 0 and √W exist
        assert (decompositions(rho), decompositions(qfim), decompositions(weight)) == (1, 0, 1)
        analysis = analyze(model, rank_tol)
        closed = sandwich(analysis)
        sol = solve(analysis, closed)
        verify_solution(analysis, sol, closed)
        assert sol.method == method
        assert (decompositions(rho), decompositions(qfim), decompositions(weight)) == (1, 1, 1)


def dense_epigraph(q, cols):
    return DenseOperator(epigraph_matrices(q, cols), q)


def solve_with(operator, model, monkeypatch):
    """Solve ``model`` with ``operator(q, cols)`` in place of EpigraphOperator."""
    monkeypatch.setattr(holevo, "EpigraphOperator", operator)
    return holevo._solve_sdp(analyze(model))


def sdp_start_models():
    """Models whose Holevo start must still be strictly feasible: weak and
    strong signals, a pure state, a singular W, q = 8, and a W with an
    eigenvalue of −1e-9 relative, which :func:`validate` accepts."""
    rng = np.random.default_rng(50)
    base = random_model(rng, 3, 3, 2, weighted=True)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    three = random_model(rng, 3, 3, 3)
    return {
        "weak": dataclasses.replace(base, drho=base.drho * 1e-6),
        "strong": dataclasses.replace(base, drho=base.drho * 1e6),
        "pure": random_model(rng, 3, 3, 3, rank=1),
        "singular_w": dataclasses.replace(three, weight=2.0 * np.outer(rot[:, 0], rot[:, 0])),
        "q8": fixture("random_full_rank", [3, 3, 8, 8]),
        "negative_w": dataclasses.replace(three, weight=(rot * [1.0, 0.5, -1e-9]) @ rot.T),
    }


@pytest.mark.parametrize("name", list(sdp_start_models()))
def test_sdp_start_is_strictly_feasible(name, monkeypatch):
    """:func:`holevo._solve_sdp` hands :func:`qcrb.sdp.solve_lmi` a start with
    V₀ − Z(X̃_eff) ⪰ (0.1‖Z‖₂ + 1)I and S₀ ≻ 0, which the solver requires.
    The SDP is the model's on range(W): X̃_eff = X_effU₊, U₊ = R diag(w₊)^-½."""
    model = sdp_start_models()[name]
    validate(model)
    analysis = analyze(model)
    seen = {}
    original = sdp.solve_lmi

    def recording(c, f0, op, u0, s0, **kwargs):
        seen.update(f0=f0, op=op, u0=u0, s0=s0)
        return original(c, f0, op, u0, s0, **kwargs)

    monkeypatch.setattr(sdp, "solve_lmi", recording)
    sol = holevo._solve_sdp(analysis, max_iter=0)
    assert (sol.status, sol.iterations) == ("MaxIterations", 0)  # the slack factored: X ≻ 0
    factor = analysis.weight_factor
    q = factor.shape[1]
    a, b = np.triu_indices(q)
    v0 = np.zeros((q, q))
    v0[a, b] = v0[b, a] = seen["u0"][:a.size]
    frame = factor / np.linalg.norm(factor, axis=0)  # U₊
    z = linalg.z_matrix(np.tensordot(frame, analysis.x_eff, axes=(0, 0)), model.rho)
    margin = 0.1 * np.linalg.norm(z, 2) + 1.0
    assert np.linalg.eigvalsh(v0 - z).min() >= margin * (1 - 1e-12)
    assert np.linalg.eigvalsh(seen["f0"] + seen["op"].apply(seen["u0"])).min() > 0
    assert np.linalg.eigvalsh(seen["s0"]).min() > 0


def test_sdp_dual_start_covers_negative_weight_eigenvalues(monkeypatch):
    """At q = 120, with W's 119 small eigenvalues at −0.99e-8 of its largest
    (which :func:`validate` accepts), the margin 1e-6·max(tr W / q, 1) is
    below |λ_min(W)|; the SDP solves the model on range(W), whose weight
    diag(w₊) has w₊ > 0, so S₀ ≻ 0.  The operator and the solve are
    stubbed: only the start is built."""
    model = fixture("random_full_rank", [1, 11, 120, 120])
    rot, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(120, 120)))
    vals = np.full(120, -0.99e-4)
    vals[0] = 1e4
    model = dataclasses.replace(model, weight=(rot * vals) @ rot.T)
    validate(model)
    w_scale = max(float(np.trace(model.weight)) / 120, 1.0)
    assert 1e-6 * w_scale < -model.weight_eig[0][0]
    seen = {}

    class Stop(Exception):
        pass

    def recording(c, f0, op, u0, s0, **kwargs):
        seen["s0"] = s0
        raise Stop

    monkeypatch.setattr(holevo, "EpigraphOperator", lambda q, cols: None)
    monkeypatch.setattr(sdp, "solve_lmi", recording)
    with pytest.raises(Stop):
        holevo._solve_sdp(analyze(model))
    assert np.linalg.eigvalsh(seen["s0"]).min() > 0


def hand_back_weight(name):
    """W = diag(1, 1, 0), diag(1, 0, 1), or (Q diag(1, 0) Qᵀ) ⊕ 1 with Q the 0.7-rad rotation."""
    if name == "rotated":
        weight = np.eye(3)
        weight[:2, :2] = rotated_weight(0.0, 0.7)
        return weight
    return np.diag([1.0, 1.0, 0.0] if name == "diag_110" else [1.0, 0.0, 1.0])


@pytest.mark.parametrize("seed, name", [(0, "diag_101"), (0, "rotated"), (2, "diag_110"), (3, "rotated"),
                                        (6, "diag_101"), (6, "rotated"), (7, "diag_110"), (7, "rotated"),
                                        (14, "rotated"), (15, "diag_110"), (15, "diag_101"), (15, "rotated")])
def test_singular_weight_hand_back_solves_the_reduced_model(seed, name):
    """The dual hands these pure-state models with a singular W to the SDP,
    which solves them on range(W): each ends Optimal, verifies, and matches
    the c_h of the reduced model (dbeta U₊, diag(w₊)).  Where the SDP read W
    itself, seven of the twelve ended NumericalTrouble."""
    model = dataclasses.replace(random_model(np.random.default_rng(seed), 3, 3, 3, rank=1),
                                weight=hand_back_weight(name))
    analysis = analyze(model)
    closed = sandwich(analysis)
    assert holevo._solve_dual(analysis, closed, 1e-8, 200) is None
    sol = solve(analysis, closed)
    assert (sol.method, sol.status) == (holevo.SDP, sdp.OPTIMAL)
    verify_solution(analysis, sol, closed)
    factor = analysis.weight_factor
    w_plus = (factor * factor).sum(axis=0)
    reduced = analyze(dataclasses.replace(model, dbeta=model.dbeta @ (factor / np.sqrt(w_plus)),
                                          weight=np.diag(w_plus)))
    assert sol.c_h == pytest.approx(solve(reduced, sandwich(reduced)).c_h, rel=1e-12)


def test_zero_weight_at_one_target():
    """q = 1 with W = 0 reaches the SDP with no target on range(W): c_h = 0
    at X_eff, with no solve."""
    model = dataclasses.replace(fixture("random_full_rank", [3, 3, 2, 1]), weight=np.zeros((1, 1)))
    analysis = analyze(model)
    closed = sandwich(analysis)
    sol = solve(analysis, closed)
    assert (sol.method, sol.status, sol.iterations, sol.c_h) == (holevo.SDP, sdp.OPTIMAL, 0, 0.0)
    assert sol.x_opt is analysis.x_eff
    verify_solution(analysis, sol, closed)


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

    @pytest.mark.parametrize("d, rank, p, q", [
        (3, 3, 2, 1),
        (3, 1, 2, 1),  # rank-deficient: d·r = 3
        (4, 4, 4, 3),
        (4, 2, 4, 3),
        (6, 6, 3, 3),  # N = 39, a size at which solve_lmi uses these methods
    ])
    def test_factor_and_max_step_match_dense(self, d, rank, p, q, monkeypatch):
        rng = np.random.default_rng(1000 + 10 * d + rank)
        _, cols = captured_operator(random_model(rng, d, p, q, rank=rank, weighted=True), monkeypatch)
        op, dense = EpigraphOperator(q, cols), dense_epigraph(q, cols)
        d_r = cols.shape[0]
        size = q + d_r
        eye = np.eye(size)
        for _ in range(3):
            # a slack F(u) of the form solve_lmi holds: F0 = [[0, M0ᴴ], [M0, I]]
            f0 = np.zeros((size, size), dtype=complex)
            f0[q:, :q] = rng.normal(size=(d_r, q)) + 1j * rng.normal(size=(d_r, q))
            f0[:q, q:] = f0[q:, :q].conj().T
            f0[q:, q:] = np.eye(d_r)
            u = 0.3 * rng.normal(size=op.n)
            a, b = np.triu_indices(q)
            u[:a.size] += np.where(a == b, 2.0 + np.linalg.norm(f0[q:, :q]) ** 2, 0.0)
            x = f0 + op.apply(u)
            assert np.linalg.eigvalsh(x).min() > 0

            low, low_inv = op.factor(x)
            assert np.abs(low @ low.conj().T - x).max() <= 1e-12 * np.abs(x).max()
            assert np.abs(low @ low_inv - eye).max() <= 1e-12

            _, dense_inv = dense.factor(x)
            for scale in (0.1, 1.0, 10.0):
                dx = op.apply(scale * rng.normal(size=op.n))
                want = dense.scaled_extremes(dense_inv, dx)
                assert np.isfinite(sdp._step_length(want[0]))
                got = op.scaled_extremes(low_inv, dx)
                assert got == pytest.approx(want, rel=1e-10)
                assert sdp._step_length(got[0]) == pytest.approx(sdp._step_length(want[0]), rel=1e-10)

            # a direction that only grows the slack: dx ⪰ 0, with N − q zero
            # eigenvalues, so the step is unbounded
            du = np.zeros(op.n)
            du[:a.size] = np.where(a == b, 1.0, 0.0)
            dx = op.apply(du)
            got, want = op.scaled_extremes(low_inv, dx), dense.scaled_extremes(dense_inv, dx)
            assert got[1] == pytest.approx(want[1], rel=1e-10)
            assert sdp._step_length(got[0]) == np.inf
            assert sdp._step_length(want[0]) > 1e12  # the dense eigenvalues straddle 0 at roundoff

    def test_large_q_keeps_only_per_variable_arrays(self):
        """At q = 30, m = 10 the n_v × n V rows (465 × 765) are gathered when
        :meth:`schur` runs, not kept: the operator holds a few length-n
        arrays and C, far less than the n × n Schur matrix, and its V and x
        rows still match the dense matrices written out one by one."""
        rng = np.random.default_rng(30)
        q, d_r, m = 30, 12, 10
        cols = rng.normal(size=(d_r, m)) + 1j * rng.normal(size=(d_r, m))
        op = EpigraphOperator(q, cols)
        kept = [array for value in vars(op).values()
                for array in (value if isinstance(value, tuple) else (value,)) if isinstance(array, np.ndarray)]
        assert max(value.size for value in kept) <= op.n ** 2
        assert sum(value.nbytes for value in kept) <= 0.01 * op.n ** 2 * 8
        a = rng.normal(size=(q + d_r,) * 2) + 1j * rng.normal(size=(q + d_r,) * 2)
        g = a @ a.conj().T + 0.1 * np.eye(q + d_r)
        gf = g @ epigraph_matrices(q, cols)  # G F_j
        got = op.schur(g)
        for i in (0, 1, op.n_v // 2, op.n_v - 1, op.n_v, op.n - 1):
            want = np.einsum("ab,jba->j", gf[i], gf).real  # Re tr(G F_i G F_j)
            assert np.abs(got[i] - want).max() <= 1e-12 * np.abs(want).max()

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
        # one factor per iterate, the last one's deciding X ≻ 0 before it counts as optimal
        assert len(calls) == (sol.iterations + 1 if structured else 0)

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
        forms equals its dense form on every iterate of a solve: of a model
        from the Holevo start, and of a generic LMI from V0 = (‖M0‖₂² + 1)I,
        a start that the caller shifts to strict feasibility.  Every slack
        handed to ``factor`` keeps the lower-right block I that it reads.

        The bound is relative to the product of the factors' norms, the scale
        at which both forms round: near the optimum a congruence cancels to
        far below it (LxᴴSLx to 1e-9 of it here) in either form alike.
        """
        calls = dict.fromkeys(["factor_congruence", "times_factor_inv", "congruence", "adjoint_congruence"], 0)
        corners = []

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
                corners.append(np.array_equal(x[self.q:, self.q:], np.eye(x.shape[0] - self.q)))
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
            u0 = np.zeros(op.n)
            u0[:a.size] = np.where(a == b, np.linalg.norm(f0[q:, :q], 2) ** 2 + 1.0, 0.0)
            res = sdp.solve_lmi(np.concatenate([np.where(a == b, 1.0, 0.0), np.zeros(q * m)]), f0, op,
                                u0, np.eye(q + d_r))
            status, iterations = res.status, res.iterations
        else:
            sol = solve_with(Checking, fixture("random_full_rank", [3, 5, 3, 3]), monkeypatch)
            status, iterations = sol.status, sol.iterations
        assert all(corners) and len(corners) == iterations + 1
        assert status == "Optimal"
        assert calls == {"factor_congruence": iterations, "times_factor_inv": iterations,
                         "congruence": 2 * iterations, "adjoint_congruence": iterations}

    def test_shifted_start_on_both_routes(self, monkeypatch):
        """From V0 = (‖M0‖₂² + 1)I, a start that the caller shifts to strict
        feasibility, both routes reach the closed-form optimum.

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
        u0 = np.zeros(op.n)
        u0[:a.size] = np.where(a == b, np.linalg.norm(m0, 2) ** 2 + 1.0, 0.0)  # V0 − M0ᴴM0 ⪰ I
        results = []
        for threshold in (0, 10 ** 9):
            monkeypatch.setattr(sdp, "_STRUCTURED_MIN", threshold)
            res = sdp.solve_lmi(c, f0, op, u0, np.eye(q + d_r))
            assert res.status == "Optimal"
            assert res.pobj == pytest.approx(expected, rel=1e-7)
            results.append(res)
        assert results[0].iterations == results[1].iterations
        assert results[0].pobj == pytest.approx(results[1].pobj, rel=1e-10)
