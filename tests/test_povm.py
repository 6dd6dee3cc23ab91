import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcrb.bounds import c_gs, sandwich
from qcrb.exceptions import IllDefinedFim, ModelError, NotLocallyUnbiased
from qcrb.linalg import pseudoinverse
from qcrb.model import QuantumModel, fixture
from qcrb.povm import (
    DiscretePovm,
    born_probs,
    check_local_unbiasedness,
    error_covariance,
    influence_operators,
    load_povm,
    matrix_crb_check,
    measurement_report,
    povm_fim,
    save_povm,
    validate_povm,
)
from qcrb.sld import analyze
from _support import locally_unbiased_povm, random_model

SZ = np.diag([1.0, -1.0]).astype(complex)
P_UP = np.diag([1.0, 0.0]).astype(complex)
P_DOWN = np.diag([0.0, 1.0]).astype(complex)


def sz_povm(estimates=((1.0,), (-1.0,))):
    return DiscretePovm(elements=np.array([P_UP, P_DOWN]), estimates=np.array(estimates))


def z_family_model(theta):
    return QuantumModel(
        dim=2,
        rho=np.diag([(1 + theta) / 2, (1 - theta) / 2]).astype(complex),
        drho=np.array([SZ / 2]),
        dbeta=np.array([[1.0]]),
        weight=np.array([[1.0]]),
    )


def trine_povm():
    elements = []
    for j in range(3):
        angle = 2 * np.pi * j / 3
        vec = np.array([np.cos(angle / 2), np.sin(angle / 2)], dtype=complex)
        elements.append(2.0 / 3.0 * np.outer(vec, vec.conj()))
    return DiscretePovm(elements=np.array(elements), estimates=np.zeros((3, 1)))


class TestValidatePovm:
    def test_accepts_projective(self):
        validate_povm(sz_povm())

    def test_accepts_trine(self):
        validate_povm(trine_povm())

    def test_rejects_incomplete(self):
        povm = DiscretePovm(elements=np.array([P_UP]), estimates=np.zeros((1, 1)))
        with pytest.raises(ModelError, match="identity"):
            validate_povm(povm)

    def test_rejects_negative_element(self):
        povm = DiscretePovm(
            elements=np.array([2 * P_UP, np.eye(2) - 2 * P_UP]), estimates=np.zeros((2, 1))
        )
        with pytest.raises(ModelError, match="PSD"):
            validate_povm(povm)


class TestBornProbs:
    def test_maximally_mixed(self):
        assert_allclose(born_probs(sz_povm(), np.eye(2, dtype=complex) / 2), [0.5, 0.5])

    def test_biased_state(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert_allclose(born_probs(sz_povm(), rho), [0.75, 0.25])

    def test_trine_uniform(self):
        assert_allclose(born_probs(trine_povm(), np.eye(2, dtype=complex) / 2),
                        np.full(3, 1 / 3), atol=1e-12)


class TestPovmFim:
    def test_matches_binary_fisher_info_at_origin(self):
        assert_allclose(povm_fim(sz_povm(), z_family_model(0.0)), [[1.0]], atol=1e-12)

    def test_matches_binary_fisher_info_biased(self):
        assert_allclose(povm_fim(sz_povm(), z_family_model(0.6)), [[1 / 0.64]], atol=1e-12)

    def test_orthogonal_measurement_gives_zero(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        plus = (np.eye(2) + sx) / 2
        povm = DiscretePovm(elements=np.array([plus, np.eye(2) - plus]),
                            estimates=np.array([[1.0], [-1.0]]))
        assert_allclose(povm_fim(povm, z_family_model(0.0)), [[0.0]], atol=1e-12)

    def test_zero_probability_outcome_with_flat_derivative_ok(self):
        povm = DiscretePovm(
            elements=np.array([P_UP, P_DOWN, np.zeros((2, 2), dtype=complex)]),
            estimates=np.zeros((3, 1)),
        )
        f = povm_fim(povm, z_family_model(0.2))
        assert f[0, 0] == pytest.approx(1 / (1 - 0.04))

    def test_zero_probability_outcome_on_valid_pure_model(self):
        # for models passing validation, kernel-supported outcomes carry no
        # derivative weight either, so the FIM stays well defined
        m = fixture("pure_qubit_angles", [np.pi / 2, 0.0])
        vals, vecs = np.linalg.eigh(m.rho)
        kernel = vecs[:, 0]
        proj_kernel = np.outer(kernel, kernel.conj())
        povm = DiscretePovm(
            elements=np.array([proj_kernel, np.eye(2) - proj_kernel]),
            estimates=np.zeros((2, 2)),
        )
        fim = povm_fim(povm, m)
        assert fim.shape == (2, 2)

    def test_ill_defined_fim(self):
        # a mis-specified (unvalidatable) model: derivative grows the kernel
        m = QuantumModel(
            dim=2,
            rho=np.diag([1.0, 0.0]).astype(complex),
            drho=np.array([np.diag([-1.0, 1.0]).astype(complex)]),
            dbeta=np.array([[1.0]]),
            weight=np.array([[1.0]]),
        )
        with pytest.raises(IllDefinedFim):
            povm_fim(sz_povm(), m)

    def test_never_exceeds_qfim(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            m = random_model(rng, d, p=2, q=2)
            povm = locally_unbiased_povm(rng, m, np.zeros(2))
            if povm is None:
                continue
            gap = analyze(m).qfim - povm_fim(povm, m)
            assert np.linalg.eigvalsh(gap).min() > -1e-9


class TestInfluenceOperators:
    def test_sz_difference(self):
        assert_allclose(influence_operators(sz_povm(), np.zeros(1))[0], SZ, atol=1e-15)

    def test_constant_estimates_vanish(self):
        povm = sz_povm(estimates=((0.7,), (0.7,)))
        assert_allclose(influence_operators(povm, np.array([0.7]))[0],
                        np.zeros((2, 2)), atol=1e-15)

    def test_shift_invariance(self):
        x1 = influence_operators(sz_povm(), np.zeros(1))
        shifted = sz_povm(estimates=((1.0 + 0.3,), (-1.0 + 0.3,)))
        x2 = influence_operators(shifted, np.array([0.3]))
        assert_allclose(x1, x2, atol=1e-15)


class TestLocalUnbiasedness:
    def test_sz_measurement_is_unbiased(self):
        residual, ok = check_local_unbiasedness(sz_povm(), z_family_model(0.0), np.zeros(1))
        assert ok
        assert residual == pytest.approx(0.0, abs=1e-15)

    def test_scaled_estimates_fail(self):
        povm = sz_povm(estimates=((2.0,), (-2.0,)))
        residual, ok = check_local_unbiasedness(povm, z_family_model(0.0), np.zeros(1))
        assert not ok
        assert residual == pytest.approx(1.0)

    def test_biased_estimates_fail(self):
        povm = sz_povm(estimates=((1.0,), (0.0,)))
        residual, ok = check_local_unbiasedness(povm, z_family_model(0.0), np.zeros(1))
        assert not ok
        assert residual == pytest.approx(0.5)


class TestErrorCovariance:
    def test_bernoulli_variance(self):
        sigma = error_covariance(sz_povm(), np.eye(2, dtype=complex) / 2, np.zeros(1))
        assert_allclose(sigma, [[1.0]])

    def test_deterministic_outcome(self):
        povm = DiscretePovm(elements=np.array([np.eye(2, dtype=complex)]),
                            estimates=np.array([[0.4]]))
        sigma = error_covariance(povm, np.eye(2, dtype=complex) / 2, np.array([0.4]))
        assert_allclose(sigma, [[0.0]], atol=1e-15)

    def test_shifted_target(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        sigma = error_covariance(sz_povm(), rho, np.array([0.5]))
        assert_allclose(sigma, [[0.75]])


class TestMatrixCrb:
    def test_equality_for_efficient_measurement(self):
        m = z_family_model(0.0)
        dv, dz = matrix_crb_check(measurement_report(sz_povm(), m, np.zeros(1)), m)
        assert dv == pytest.approx(0.0, abs=1e-12)
        assert dz == pytest.approx(0.0, abs=1e-12)

    def test_rejects_biased(self):
        povm = sz_povm(estimates=((2.0,), (-2.0,)))
        m = z_family_model(0.0)
        with pytest.raises(NotLocallyUnbiased):
            matrix_crb_check(measurement_report(povm, m, np.zeros(1)), m)

    def test_matrix_crb_guarantees_on_random_pairs(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 25:
            d = int(rng.integers(2, 4))
            q = int(rng.integers(1, 3))
            m = random_model(rng, d, p=int(rng.integers(q, 4)), q=q)
            beta = rng.normal(size=q)
            povm = locally_unbiased_povm(rng, m, beta)
            if povm is None:
                continue
            dv, dz = matrix_crb_check(measurement_report(povm, m, beta), m)
            assert dv >= -1e-9
            assert dz >= -1e-9
            done += 1

    def test_scalar_dv_equals_dz(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, d=2, p=2, q=1)
        povm = locally_unbiased_povm(rng, m, np.zeros(1))
        assert povm is not None
        dv, dz = matrix_crb_check(measurement_report(povm, m, np.zeros(1)), m)
        assert dv == pytest.approx(dz, abs=1e-12)


class TestOperationalBounds:
    def test_tr_w_sigma_dominates_c_gs(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 20:
            m = random_model(rng, d=int(rng.integers(2, 4)), p=2, q=2, weighted=True)
            beta = rng.normal(size=2)
            povm = locally_unbiased_povm(rng, m, beta)
            if povm is None:
                continue
            sigma = error_covariance(povm, m.rho, beta)
            assert float(np.trace(m.weight @ sigma)) >= c_gs(analyze(m)) - 1e-8
            done += 1

    def test_trine_vs_equatorial_model(self):
        # equatorial trine: unique locally unbiased estimates, audited
        # against the SDP bound
        from qcrb.holevo import solve

        elements = []
        for j in range(3):
            phi = 2 * np.pi * j / 3
            vec = np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2)
            elements.append(2.0 / 3.0 * np.outer(vec, vec.conj()))
        elements = np.array(elements)
        m = fixture("qubit_xy_at_z", [0.4])
        probs = np.array([np.trace(m.rho @ e).real for e in elements])
        dprobs = np.array([[np.trace(dj @ e).real for e in elements] for dj in m.drho])
        design = np.vstack([probs, dprobs])
        estimates = np.linalg.solve(design, np.vstack([np.zeros(2), m.dbeta]))
        povm = DiscretePovm(elements=elements, estimates=estimates)
        validate_povm(povm)
        residual, ok = check_local_unbiasedness(povm, m, np.zeros(2))
        assert ok, residual
        sigma = error_covariance(povm, m.rho, np.zeros(2))
        analysis = analyze(m)
        sol = solve(analysis, sandwich(analysis))
        assert float(np.trace(m.weight @ sigma)) >= sol.c_h - 1e-7

    def test_classical_crb_consistency(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 15:
            m = random_model(rng, d=2, p=2, q=2)  # dbeta random, q = p
            m_id = QuantumModel(dim=m.dim, rho=m.rho, drho=m.drho,
                                dbeta=np.eye(2), weight=np.eye(2))
            povm = locally_unbiased_povm(rng, m_id, np.zeros(2))
            if povm is None:
                continue
            fim = povm_fim(povm, m_id)
            if np.linalg.eigvalsh(fim).min() < 1e-6:
                continue
            sigma = error_covariance(povm, m_id.rho, np.zeros(2))
            assert float(np.trace(sigma)) >= float(np.trace(pseudoinverse(fim))) - 1e-8
            done += 1


class TestMeasurementReport:
    def test_fields_consistent(self):
        m = z_family_model(0.2)
        report = measurement_report(sz_povm(), m, np.array([0.2]))
        assert_allclose(report.probs, [0.6, 0.4])
        assert report.unbias_residual < 1e-12
        assert_allclose(report.sigma, [[0.96]])
        assert_allclose(report.fim, [[1 / 0.96]])
        assert report.influence.shape == (1, 2, 2)


class TestPovmSerialization:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "povm.json"
        povm = trine_povm()
        save_povm(povm, path)
        loaded = load_povm(path)
        assert np.array_equal(loaded.elements, povm.elements)
        assert np.array_equal(loaded.estimates, povm.estimates)

    def test_rejects_invalid(self, tmp_path):
        path = tmp_path / "povm.json"
        povm = DiscretePovm(elements=np.array([P_UP, P_UP]), estimates=np.zeros((2, 1)))
        save_povm(povm, path)
        with pytest.raises(ModelError, match="identity"):
            load_povm(path)
