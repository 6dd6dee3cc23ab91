import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb import linalg
from qcrb.bounds import c_d, c_gs, sandwich
from qcrb import bounds, holevo
from qcrb.exceptions import InfeasibleModel, VerificationFailed
from qcrb.model import QuantumModel, fixture
from qcrb.sld import analyze, compute_slds, information
from _support import (holevo_objective, jordan_product, psd_sqrt, random_model, random_weight, rotated_weight,
                      singular_weight_models, sld_oracle, v_matrix, zero_mean_hermitian)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def diag_model(w):
    return QuantumModel(
        dim=2,
        rho=np.diag([(1 + w) / 2, (1 - w) / 2]).astype(complex),
        drho=np.array([np.diag([0.5, -0.5]).astype(complex)]),
        dbeta=np.array([[1.0]]),
        weight=np.array([[1.0]]),
    )


class TestXEff:
    def test_transverse_qubit_recovers_paulis(self):
        ops = analyze(fixture("qubit_xy_at_z", [0.4])).x_eff
        assert_allclose(ops[0], SX, atol=1e-12)
        assert_allclose(ops[1], SY, atol=1e-12)

    def test_scalar_model(self):
        w = 0.5
        m = diag_model(w)
        assert_allclose(analyze(m).x_eff[0], (1 - w * w) * sld_oracle(m)[0], atol=1e-12)

    def test_zero_mean_and_unbiased(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            m = random_model(rng, d=3, p=3, q=2)
            ops = analyze(m).x_eff
            for xs in ops:
                assert abs(np.trace(m.rho @ xs)) < 1e-9
            deriv = np.array([[np.trace(dj @ xs).real for xs in ops] for dj in m.drho])
            assert np.abs(deriv - m.dbeta).max() < 1e-8

    def test_infeasible_raises_with_column(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, d=2, p=2, q=1, singular_j=True)
        # replace dbeta with a kernel direction of J
        kernel = np.linalg.eigh(analyze(m).qfim)[1][:, :1]
        bad = dataclasses.replace(m, dbeta=kernel)
        with pytest.raises(InfeasibleModel) as err:
            analyze(bad)
        assert err.value.bad_columns == [0]


class TestClosedFormValues:
    def test_c_gs_transverse(self):
        assert c_gs(analyze(fixture("qubit_xy_at_z", [0.5]))) == pytest.approx(2.0, abs=1e-12)

    def test_c_gs_scalar(self):
        w = 0.3
        assert c_gs(analyze(diag_model(w))) == pytest.approx(1 - w * w, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, 0.25, 0.5, 0.75, 0.9])
    def test_c_d_transverse(self, z):
        assert c_d(analyze(fixture("qubit_xy_at_z", [z]))) == pytest.approx(2 + 2 * abs(z), abs=1e-9)

    def test_c_d_equals_c_gs_for_commuting(self):
        analysis = analyze(fixture("classical_diagonal", [0.2, 0.5]))
        assert c_d(analysis) == pytest.approx(c_gs(analysis), abs=1e-10)

    def test_c_d_equals_c_gs_scalar(self):
        analysis = analyze(diag_model(0.7))
        assert c_d(analysis) == pytest.approx(c_gs(analysis), abs=1e-12)

    def test_c_gs_equals_tr_w_v_eff(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_model(rng, d=3, p=2, q=2, weighted=True)
            analysis = analyze(m)
            cf = sandwich(analysis)
            z_eff = linalg.z_matrix(analysis.x_eff, m.rho)
            v_eff = (z_eff.real + z_eff.real.T) / 2
            assert cf.c_gs == pytest.approx(float(np.trace(m.weight @ v_eff)), abs=1e-9)

    def test_c_d_matches_z_eff_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_model(rng, d=3, p=3, q=3, weighted=True)
            analysis = analyze(m)
            cf = sandwich(analysis)
            root_w = psd_sqrt(m.weight)
            z_eff = linalg.z_matrix(analysis.x_eff, m.rho)
            direct = float(np.trace(m.weight @ z_eff.real)) + linalg.trace_norm(root_w @ z_eff.imag @ root_w)
            assert cf.c_d == pytest.approx(direct, abs=1e-9)


class TestSingularWeight:
    def test_c_d_matches_the_reduced_model(self):
        """W = U diag(w₊, 0) Uᵀ in a rotated frame.  The bounds depend on X
        only through the targets in range(W), so c_d equals that of the
        model reduced to them, (dbeta U₊, diag(w₊)).  The weight factor R
        reads W's one rank decision, so the roundoff eigenvalues of the
        rotated W do not enter it."""
        for full, reduced, rank in singular_weight_models():
            full, reduced = analyze(full), analyze(reduced)
            assert full.weight_factor.shape[1] == rank and reduced.weight_factor.shape[1] == rank
            assert c_d(full) == pytest.approx(c_d(reduced), rel=1e-13)

    @staticmethod
    def near_singular(ratio, angle):
        """qubit_xy_at_z (D-invariant, so Im Z₁₂ is fixed by the constraints)
        with W's eigenvalues 1 and ``ratio``, rotated by ``angle``."""
        return analyze(dataclasses.replace(fixture("qubit_xy_at_z", [0.5]), weight=rotated_weight(ratio, angle)))

    @pytest.mark.parametrize("ratio", [5e-13, 1e-12])
    @pytest.mark.parametrize("angle", [0.0, 0.7])
    def test_small_eigenvalue_stays_in_root_weight(self, ratio, angle):
        """An eigenvalue w₂ of W above roundoff (q·eps·λ_max = 4.4e-16 here)
        keeps its column √w₂u₂ in the weight factor R, or c_d would lose its
        cross term 2√(w₁w₂)|Im Z₁₂| (1.4e-6 relative here).  Only an
        eigenvalue at or below that cut is dropped from R."""
        analysis = self.near_singular(ratio, angle)
        assert analysis.weight_factor.shape == (2, 2)
        exact = holevo_objective(analysis.model, analysis.x_eff)  # with the exact √W
        assert c_d(analysis) == pytest.approx(exact, rel=1e-9)
        assert self.near_singular(1e-16, angle).weight_factor.shape == (2, 1)

    @pytest.mark.parametrize("ratio", [5e-13, 1e-12])
    def test_small_eigenvalue_verifies(self, ratio):
        """A W ≻ 0 down to roundoff, and a W with an exact zero eigenvalue,
        take the D-invariant short cut, whose c_h = c_d matches the nonsmooth
        objective that :func:`verify_solution` forms with R.  The SDP, which
        reads all of W, still verifies on a W with an exact zero eigenvalue
        (a pure q = 3 model that the dual hands back with q′ = 2)."""
        for analysis in (self.near_singular(ratio, 0.0), self.near_singular(0.0, 0.0)):
            closed = sandwich(analysis)
            sol = holevo.solve(analysis, closed)
            assert sol.method == holevo.D_INVARIANT and sol.c_h == closed.c_d
            holevo.verify_solution(analysis, sol, closed)
        model = random_model(np.random.default_rng(0), 3, 3, 3, rank=1)
        singular = analyze(dataclasses.replace(model, weight=np.diag([1.0, 0.0, 1.0])))
        closed = sandwich(singular)
        sol = holevo.solve(singular, closed)
        assert sol.method == holevo.SDP
        holevo.verify_solution(singular, sol, closed)


class TestSandwich:
    def test_known_triple(self):
        cf = sandwich(analyze(fixture("qubit_xy_at_z", [0.5])))
        assert (cf.c_gs, cf.c_d, 2 * cf.c_gs) == pytest.approx((2.0, 3.0, 4.0), abs=1e-9)

    def test_limit_approaches_two_c_gs(self):
        cf = sandwich(analyze(fixture("qubit_xy_at_z", [1 - 1e-6])))
        assert cf.c_d == pytest.approx(4.0, abs=1e-5)
        assert cf.c_d < 4.0

    def test_ordering_on_random_models(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(1, min(5, d * d)))
            q = int(rng.integers(1, p + 1))
            m = random_model(rng, d, p, q, weighted=True)
            analysis = analyze(m)
            cf = sandwich(analysis)
            assert cf.c_gs <= cf.c_d + 1e-9
            assert cf.c_d <= 2 * cf.c_gs + 1e-9
            z_eff = linalg.z_matrix(analysis.x_eff, m.rho)
            assert_allclose((z_eff.real + z_eff.real.T) / 2, z_eff.real, atol=1e-10)

    def test_weak_signal_passes(self):
        # drho scaled by 1e-6: c_gs ≈ 2e12, and c_d exceeds 2·c_gs by
        # roundoff (≈ 1.5e-16 relative), which an absolute 1e-9 cannot absorb
        m = fixture("pure_qubit_angles", [1.4025641025641025, 0.3])
        cf = sandwich(analyze(dataclasses.replace(m, drho=m.drho * 1e-6)))
        assert cf.c_gs == pytest.approx(2e12, rel=1e-9)
        assert cf.c_d == pytest.approx(2 * cf.c_gs, rel=1e-12)

    def test_real_violation_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "c_d", lambda analysis: 2 * c_gs(analysis) * (1 + 1e-6))
        with pytest.raises(VerificationFailed, match="bound ordering violated"):
            sandwich(analyze(fixture("qubit_xy_at_z", [0.5])))


def tangent_orthogonal_noise(rng, analysis):
    """Feasibility-preserving perturbation g with <L_j, g_s> = 0 and zero mean."""
    model = analysis.model
    q = model.n_targets
    g_ops = []
    slds = sld_oracle(model)
    j_pinv = linalg.pseudoinverse(analysis.qfim)
    for _ in range(q):
        h = zero_mean_hermitian(rng, model.dim, model.rho)
        overlaps = np.array(
            [np.trace(model.rho @ jordan_product(lj, h)).real for lj in slds]
        )
        h = h - np.tensordot(j_pinv @ overlaps, slds, axes=(0, 0))
        h = h - np.trace(model.rho @ h).real * np.eye(model.dim)
        g_ops.append(h)
    return np.array(g_ops)


class TestVarianceMinimality:
    def test_projection_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            m = random_model(rng, d=3, p=3, q=2)
            analysis = analyze(m)
            ops = analysis.x_eff
            noise = tangent_orthogonal_noise(rng, analysis)
            cross = np.array(
                [
                    [np.trace(m.rho @ jordan_product(xs, gt)) for gt in noise]
                    for xs in ops
                ]
            )
            assert np.abs(cross).max() < 1e-9

    def test_minimality_against_feasible_competitors(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            m = random_model(rng, d=3, p=2, q=2, weighted=True)
            analysis = analyze(m)
            ops = analysis.x_eff
            competitor = ops + tangent_orthogonal_noise(rng, analysis)
            # competitor is still locally unbiased
            deriv = np.array([[np.trace(dj @ xs).real for xs in competitor] for dj in m.drho])
            assert np.abs(deriv - m.dbeta).max() < 1e-8
            v_gap = v_matrix(competitor, m.rho) - v_matrix(ops, m.rho)
            assert np.linalg.eigvalsh(v_gap).min() > -1e-9
            assert float(np.trace(m.weight @ v_matrix(competitor, m.rho))) >= c_gs(analysis) - 1e-9

    def test_kernel_block_invariance(self):
        m = fixture("pure_qubit_angles", [1.3, 0.2])
        analysis = analyze(m)
        base_gs = c_gs(analysis)
        base_d = c_d(analysis)
        k = np.flatnonzero(~analysis.support)[0]  # rho's kernel vector, in its eigenbasis
        slds_p = compute_slds(analysis.drho_eig, analysis.eigvals, analysis.support)[0]
        slds_p[:, k, k] += 2.0
        qfim_p, dmat_p = information(slds_p, analysis.eigvals)
        perturbed = dataclasses.replace(analysis, qfim=qfim_p, dmat=dmat_p, qfim_pinv=linalg.pseudoinverse(qfim_p))
        assert c_gs(perturbed) == pytest.approx(base_gs, abs=1e-10)
        assert c_d(perturbed) == pytest.approx(base_d, abs=1e-10)

    def test_weight_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_model(rng, d=3, p=2, q=2)
            w1 = random_weight(rng, 2)
            w2 = w1 + np.outer(*(2 * [rng.normal(size=2)]))  # w2 >= w1
            m1 = dataclasses.replace(m, weight=w1)
            m2 = dataclasses.replace(m, weight=w2)
            assert c_gs(analyze(m1)) <= c_gs(analyze(m2)) + 1e-9

    def test_reparameterization_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_model(rng, d=3, p=3, q=2, weighted=True)
            r = rng.normal(size=(2, 2)) + 2 * np.eye(2)
            r_inv = np.linalg.inv(r)
            m2 = dataclasses.replace(m, dbeta=m.dbeta @ r, weight=r_inv @ m.weight @ r_inv.T)
            assert c_gs(analyze(m2)) == pytest.approx(c_gs(analyze(m)), rel=1e-8)
