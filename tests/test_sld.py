import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb.exceptions import InfeasibleModel, KernelBlockDerivative, ResidualTooLarge
from qcrb.linalg import jordan_product, pseudoinverse
from qcrb.model import QuantumModel, fixture
from qcrb.sld import analyze, compute_slds, infeasible_columns, information
from _support import random_model

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def diag_model(w):
    return QuantumModel(
        dim=2,
        rho=np.diag([(1 + w) / 2, (1 - w) / 2]).astype(complex),
        drho=np.array([np.diag([0.5, -0.5]).astype(complex)]),
        dbeta=np.array([[1.0]]),
        weight=np.array([[1.0]]),
    )


class TestComputeSlds:
    def test_diagonal_lyapunov_solve(self):
        w = 0.4
        analysis = analyze(diag_model(w))
        assert_allclose(analysis.slds[0], np.diag([1 / (1 + w), -1 / (1 - w)]), atol=1e-12)
        assert analysis.residuals.max() < 1e-12

    def test_maximally_mixed(self):
        m = QuantumModel(
            dim=2, rho=np.eye(2, dtype=complex) / 2, drho=np.array([SX / 2]),
            dbeta=np.array([[1.0]]), weight=np.array([[1.0]]),
        )
        analysis = analyze(m)
        assert_allclose(analysis.slds[0], SX, atol=1e-12)

    def test_pure_state_kernel_block_zeroed(self):
        m = fixture("pure_qubit_angles", [1.0, 0.3])
        analysis = analyze(m)
        vals, vecs = np.linalg.eigh(m.rho)
        kernel = vecs[:, vals < 1e-10]
        for lj in analysis.slds:
            block = kernel.conj().T @ lj @ kernel
            assert np.abs(block).max() < 1e-12
        assert analysis.residuals.max() < 1e-12

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = random_model(rng, d=int(rng.integers(2, 5)), p=2, q=2,
                             rank=None if rng.random() < 0.5 else 2)
            analysis = analyze(m)
            for lj, dj in zip(analysis.slds, m.drho):
                assert np.linalg.norm(jordan_product(m.rho, lj) - dj) < 1e-8

    def test_zero_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_model(rng, d=3, p=3, q=2)
            analysis = analyze(m)
            for lj in analysis.slds:
                assert abs(np.trace(m.rho @ lj)) < 1e-10

    def test_residual_too_large_on_kernel_content(self):
        # bypass the kernel-block check of analyze: feed a kernel-block derivative directly
        rho = np.diag([1.0, 0.0]).astype(complex)
        eigvals, eigvecs = np.linalg.eigh(rho)
        with pytest.raises(ResidualTooLarge) as raised:
            compute_slds(rho, np.array([np.diag([-1.0, 1.0]).astype(complex)]),
                         eigvals, eigvecs, eigvals > 1e-10)
        assert raised.value.support_rank == 1

    def test_scale_covariance(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, d=3, p=2, q=2)
        c = 2.5
        scaled = QuantumModel(dim=m.dim, rho=m.rho, drho=c * m.drho,
                              dbeta=m.dbeta, weight=m.weight)
        info = analyze(m)
        info_c = analyze(scaled)
        assert_allclose(info_c.slds, c * info.slds, atol=1e-10)
        assert_allclose(info_c.qfim, c * c * info.qfim, atol=1e-9)


class TestDInvarianceResidual:
    """How far span_R{L_j} is from being closed under 𝒟_ρ."""

    @pytest.mark.parametrize("name, params", [
        ("qubit_xy_at_z", [0.5]), ("pure_qubit_angles", [1.0, 0.2]),
        ("qubit_bloch", [0.1, 0.2, 0.3]), ("classical_diagonal", [0.2, 0.3]),
        ("random_full_rank", [1, 3, 8, 2]),  # p = d² − 1: every L with tr ρL = 0
    ])
    def test_invariant_models(self, name, params):
        assert analyze(fixture(name, params)).d_invariance_residual <= 1e-14

    def test_commuting_model_is_exactly_zero(self):
        assert analyze(diag_model(0.4)).d_invariance_residual == 0.0

    def test_against_hand_computed_qubit(self):
        """ρ = (I + z σ_z)/2 with one derivative σ_x/2: L = σ_x and
        𝒟L = 2z·σ_y, orthogonal to L, so nothing of it is fitted; at
        z = 0.5 its norm is ‖L‖."""
        model = fixture("qubit_xy_at_z", [0.5])
        single = QuantumModel(dim=2, rho=model.rho, drho=model.drho[:1], dbeta=np.eye(1), weight=np.eye(1))
        assert analyze(single).d_invariance_residual == pytest.approx(1.0, abs=1e-15)

    @staticmethod
    def rotated(model, rng):
        d = model.dim
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        return QuantumModel(dim=d, rho=u @ model.rho @ u.conj().T, drho=u @ model.drho @ u.conj().T,
                            dbeta=model.dbeta, weight=model.weight)

    def test_frame_invariant(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, d=3, p=2, q=2, rank=2)
        residual = analyze(model).d_invariance_residual
        assert residual > 0.1
        assert analyze(self.rotated(model, rng)).d_invariance_residual == pytest.approx(residual, rel=1e-10)

    def test_commuting_model_in_another_frame(self):
        """There 𝒟L_j is roundoff, and so is the residual: it is scaled by ‖L_j‖."""
        rng = np.random.default_rng(9)
        model = self.rotated(fixture("classical_diagonal", [0.2, 0.3]), rng)
        assert analyze(model).d_invariance_residual <= 1e-14


class TestInformation:
    def test_transverse_qubit(self):
        for z in (0.0, 0.3, -0.8):
            m = fixture("qubit_xy_at_z", [z])
            info = analyze(m)
            assert_allclose(info.qfim, np.eye(2), atol=1e-12)
            assert_allclose(info.dmat, [[0, z], [-z, 0]], atol=1e-12)

    def test_one_parameter_diagonal(self):
        w = 0.6
        m = diag_model(w)
        info = analyze(m)
        assert_allclose(info.qfim, [[1 / (1 - w * w)]], atol=1e-12)
        assert info.qfim_rank == 1

    def test_commuting_family_has_zero_dmat(self):
        m = fixture("classical_diagonal", [0.3, 0.2, 0.1])
        info = analyze(m)
        assert np.abs(info.dmat).max() < 1e-10

    def test_exact_symmetry(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, d=4, p=3, q=2)
        info = analyze(m)
        assert np.array_equal(info.qfim, info.qfim.T)
        assert np.array_equal(info.dmat, -info.dmat.T)
        assert np.linalg.eigvalsh(info.qfim).min() > -1e-10

    def test_kernel_block_choice_does_not_matter(self):
        # perturbing the SLD kernel block must leave J and D unchanged
        m = fixture("pure_qubit_angles", [0.8, 1.9])
        info = analyze(m)
        vals, vecs = np.linalg.eigh(m.rho)
        k = vecs[:, vals < 1e-10][:, 0]
        perturbed = info.slds + 3.0 * np.outer(k, k.conj())
        qfim_p, dmat_p, _ = information(perturbed, m.rho)
        assert_allclose(qfim_p, info.qfim, atol=1e-10)
        assert_allclose(dmat_p, info.dmat, atol=1e-10)


def feasible(j, dbeta):
    return not infeasible_columns(j, pseudoinverse(j), dbeta)


class TestFeasibility:
    def test_range_vector(self):
        assert feasible(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]))

    def test_kernel_vector(self):
        j = np.diag([1.0, 0.0])
        assert not feasible(j, np.array([[0.0], [1.0]]))
        assert infeasible_columns(j, pseudoinverse(j), np.array([[0.0], [1.0]])) == [0]

    def test_nonsingular_always_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            g = rng.normal(size=(p, p))
            assert feasible(g @ g.T + 0.1 * np.eye(p), rng.normal(size=(p, int(rng.integers(1, p + 1)))))

    def test_agrees_with_lstsq_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            p = int(rng.integers(2, 7))
            rank = int(rng.integers(1, p))
            g = rng.normal(size=(p, rank))
            j = g @ g.T
            if rng.random() < 0.5:
                dbeta = j @ rng.normal(size=(p, 1))
            else:
                # force a kernel component
                kernel = np.linalg.svd(j)[0][:, rank:]
                dbeta = j @ rng.normal(size=(p, 1)) + kernel @ rng.normal(size=(kernel.shape[1], 1))
            sol, *_ = np.linalg.lstsq(j, dbeta, rcond=None)
            oracle = np.abs(j @ sol - dbeta).max() <= 1e-8
            assert feasible(j, dbeta) == oracle


class TestOneRankTol:
    """rho = diag(1 − ε, ε) with ε = 1e-9 sits between the two cutoffs, so
    every rank decision of the analysis must flip together."""

    EPS = 1e-9

    def model(self, dbeta):
        eps = self.EPS
        return QuantumModel(
            dim=2,
            rho=np.diag([1 - eps, eps]).astype(complex),
            # a coherence, and a shift of the small eigenvalue (drho = ρ ∘ diag(−ε/(1−ε), 1))
            drho=np.array([SX / 2, np.diag([-eps, eps]).astype(complex)]),
            dbeta=dbeta,
            weight=np.eye(dbeta.shape[1]),
        )

    @pytest.mark.parametrize("rank_tol, rank", [(1e-10, 2), (1e-8, 1)])
    def test_every_site_agrees(self, rank_tol, rank):
        analysis = analyze(self.model(np.array([[1.0], [0.0]])), rank_tol)
        # rho's support split
        assert analysis.support.tolist() == ([False, True] if rank == 1 else [True, True])
        # the SLD cutoff: the ε×ε entry of L_2 is solved only inside the support
        small = np.argmin(analysis.eigvals)
        l2_small = (analysis.eigvecs.conj().T @ analysis.slds[1] @ analysis.eigvecs)[small, small]
        assert (abs(l2_small) > 0.5) == (rank == 2)
        # the rank of J
        assert analysis.qfim_rank == rank
        assert np.linalg.matrix_rank(analysis.qfim_pinv, tol=1e-3) == rank
        # the feasibility verdict on the second target component
        full = self.model(np.eye(2))
        if rank == 2:
            analyze(full, rank_tol)
        else:
            with pytest.raises(InfeasibleModel) as err:
                analyze(full, rank_tol)
            assert err.value.bad_columns == [1]

    def test_kernel_content_is_named_at_the_cutoff(self):
        # the small eigenvalue moves at rate 1/2: ε is support at 1e-10 but
        # kernel at 1e-8, where that motion is kernel-block content, not an
        # unsolved SLD equation
        model = QuantumModel(
            dim=2,
            rho=np.diag([1 - self.EPS, self.EPS]).astype(complex),
            drho=np.array([SX / 2, np.diag([-0.5, 0.5]).astype(complex)]),
            dbeta=np.eye(2),
            weight=np.eye(2),
        )
        assert analyze(model, 1e-10).qfim_rank == 2
        with pytest.raises(KernelBlockDerivative, match=r"drho\[1\]"):
            analyze(model, 1e-8)
