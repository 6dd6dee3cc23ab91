import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qcrb import linalg
from _support import (belavkin_grishanin_gap, gell_mann_basis, jordan_product, v_matrix,
                      weighted_tracenorm_check)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class TestJordanProduct:
    def test_pauli_square(self):
        assert_allclose(jordan_product(SX, SX), I2, atol=1e-15)

    def test_anticommuting_paulis(self):
        assert_allclose(jordan_product(SX, SY), np.zeros((2, 2)), atol=1e-15)

    def test_commuting_diagonals(self):
        assert_allclose(
            jordan_product(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
            np.diag([3.0, 8.0]),
            atol=1e-15,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            jordan_product(I2, np.eye(3))


class TestZMatrix:
    @pytest.mark.parametrize("z", [-0.8, 0.0, 0.3, 0.9])
    def test_transverse_pauli_pair(self, z):
        rho = (I2 + z * SZ) / 2
        out = linalg.z_matrix(np.array([SX, SY]), rho)
        assert_allclose(out, np.array([[1, 1j * z], [-1j * z, 1]]), atol=1e-14)

    def test_single_operator(self):
        assert_allclose(linalg.z_matrix(np.array([SZ]), I2 / 2), [[1.0]], atol=1e-15)

    def test_maximally_mixed_is_identity(self):
        out = linalg.z_matrix(np.array([SX, SY]), I2 / 2)
        assert_allclose(out, np.eye(2), atol=1e-15)

    def test_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = rng.integers(2, 5)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            ops = np.array([linalg.hermitian_part(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                            for _ in range(3)])
            z = linalg.z_matrix(ops, rho)
            assert np.linalg.eigvalsh(z).min() >= -1e-10


    def test_matches_loop_form(self):
        """The batched products equal Tr ρ X_s X_t taken one pair at a time."""
        rng = np.random.default_rng(12)
        for _ in range(30):
            d, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            ops = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
            loop = np.array([[np.trace(rho @ xs @ xt) for xt in ops] for xs in ops])
            expected = linalg.hermitian_part(loop)
            assert np.abs(linalg.z_matrix(ops, rho) - expected).max() <= 1e-14 * np.abs(expected).max()


class TestVMatrix:
    def test_real_part_of_z(self):
        rho = (I2 + 0.4 * SZ) / 2
        assert_allclose(v_matrix(np.array([SX, SY]), rho), np.eye(2), atol=1e-14)

    def test_diagonal_model(self):
        w = 0.3
        rho = np.diag([(1 + w) / 2, (1 - w) / 2]).astype(complex)
        assert_allclose(v_matrix(np.array([SZ]), rho), [[1.0]], atol=1e-15)

    def test_zero_operator(self):
        assert_allclose(v_matrix(np.zeros((1, 2, 2)), I2 / 2), [[0.0]], atol=1e-15)

    def test_z_minus_v_purely_imaginary_skew(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.integers(2, 6)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            ops = np.array([linalg.hermitian_part(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                            for _ in range(3)])
            diff = linalg.z_matrix(ops, rho) - v_matrix(ops, rho)
            assert np.abs(diff.real).max() < 1e-12
            assert np.abs(diff.imag + diff.imag.T).max() < 1e-12


class TestTraceNorm:
    def test_rotation_block(self):
        assert linalg.trace_norm(np.array([[0, 1], [-1, 0]])) == pytest.approx(2.0)

    def test_diagonal(self):
        assert linalg.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)

    def test_zero(self):
        assert linalg.trace_norm(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-15)


class TestPseudoinverse:
    def test_singular_diagonal(self):
        assert_allclose(linalg.pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        assert_allclose(linalg.pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_rank_one(self):
        assert_allclose(
            linalg.pseudoinverse(np.ones((2, 2))), np.full((2, 2), 0.25), atol=1e-14
        )

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            linalg.pseudoinverse(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_penrose_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = rng.integers(2, 7)
            rank = rng.integers(1, d + 1)
            g = rng.normal(size=(d, rank))
            m = g @ g.T
            if rng.random() < 0.5:
                m -= 0.5 * np.trace(m) / d * np.eye(d)
                m = (m + m.T) / 2
            pinv = linalg.pseudoinverse(m)
            assert_allclose(m @ pinv @ m, m, atol=1e-8)
            assert_allclose(pinv @ m @ pinv, pinv, atol=1e-8)
            assert np.abs(m @ pinv - (m @ pinv).T).max() < 1e-8
            assert np.abs(pinv @ m - (pinv @ m).T).max() < 1e-8


def _random_hermitian_stack(rng, n, d):
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return a / 2 + a.conj().transpose(0, 2, 1) / 2


class TestGellMannCoefficients:
    def test_dim_one(self):
        assert_allclose(linalg.gell_mann_coefficients(np.array([[2.5]])), [2.5], atol=0)

    def test_dim_two_scaled_paulis_are_unit_vectors(self):
        coeffs = linalg.gell_mann_coefficients(np.array([SX, SY, SZ, I2]) / np.sqrt(2))
        assert_allclose(coeffs, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_parseval(self, d):
        a = _random_hermitian_stack(np.random.default_rng(d), 1, d)[0]
        coeffs = linalg.gell_mann_coefficients(a)
        assert coeffs.shape == (d * d,)
        assert np.sum(coeffs ** 2) == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-13)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_rebuilds_operator_from_oracle_basis(self, d):
        a = _random_hermitian_stack(np.random.default_rng(10 + d), 1, d)[0]
        rebuilt = np.tensordot(linalg.gell_mann_coefficients(a), gell_mann_basis(d), axes=(0, 0))
        assert_allclose(rebuilt, a, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_oracle_basis_is_orthonormal(self, d):
        basis = gell_mann_basis(d)
        gram = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
        assert_allclose(gram, np.eye(d * d), atol=1e-12)

    def test_stack_matches_single_calls(self):
        stack = _random_hermitian_stack(np.random.default_rng(3), 4, 5)
        rows = linalg.gell_mann_coefficients(stack)
        assert rows.shape == (4, 25)
        for row, a in zip(rows, stack):
            np.testing.assert_array_equal(row, linalg.gell_mann_coefficients(a))


class TestBelavkinGrishanin:
    def test_equality_case(self):
        assert belavkin_grishanin_gap(np.array([[1, 1j], [-1j, 1]])) == pytest.approx(0.0, abs=1e-12)

    def test_real_psd_gives_trace(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert belavkin_grishanin_gap(a) == pytest.approx(5.0)

    def test_identity(self):
        assert belavkin_grishanin_gap(np.eye(3)) == pytest.approx(3.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            belavkin_grishanin_gap(np.diag([1.0, -1.0]))

    def test_nonnegative_on_random_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = rng.integers(1, 9)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert belavkin_grishanin_gap(g @ g.conj().T) >= -1e-9


class TestWeightedTracenorm:
    def test_identity_weight(self):
        a = np.array([[0, 2.0], [-2.0, 0]])
        lhs, rhs = weighted_tracenorm_check(np.eye(2), a)
        assert lhs == pytest.approx(rhs)
        assert lhs == pytest.approx(4.0)

    def test_hand_computed_case(self):
        lhs, rhs = weighted_tracenorm_check(np.diag([4.0, 1.0]), np.array([[0, 1.0], [-1.0, 0]]))
        assert lhs == pytest.approx(4.0)
        assert rhs == pytest.approx(5.0)

    def test_zero_skew(self):
        lhs, rhs = weighted_tracenorm_check(np.diag([4.0, 1.0]), np.zeros((2, 2)))
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nonskew(self):
        with pytest.raises(ValueError, match="skew"):
            weighted_tracenorm_check(np.eye(2), np.eye(2))

    def test_inequality_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = rng.integers(2, 7)
            g = rng.normal(size=(d, d))
            w = g @ g.T
            a = rng.normal(size=(d, d))
            a = a - a.T
            lhs, rhs = weighted_tracenorm_check(w, a)
            assert lhs <= rhs + 1e-9


@st.composite
def psd_matrices(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    entries = draw(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False),
            min_size=2 * d * d,
            max_size=2 * d * d,
        )
    )
    arr = np.array(entries)
    g = arr[: d * d].reshape(d, d) + 1j * arr[d * d:].reshape(d, d)
    return g @ g.conj().T


@given(psd_matrices())
@settings(max_examples=150, deadline=None)
def test_belavkin_grishanin_property(a):
    assert belavkin_grishanin_gap(a) >= -1e-9


@st.composite
def weight_skew_pairs(draw):
    d = draw(st.integers(min_value=2, max_value=5))
    entries = draw(
        st.lists(
            st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False),
            min_size=2 * d * d,
            max_size=2 * d * d,
        )
    )
    arr = np.array(entries)
    g = arr[: d * d].reshape(d, d)
    b = arr[d * d:].reshape(d, d)
    return g @ g.T, b - b.T


@given(weight_skew_pairs())
@settings(max_examples=150, deadline=None)
def test_weighted_tracenorm_property(pair):
    w, a = pair
    lhs, rhs = weighted_tracenorm_check(w, a)
    assert lhs <= rhs + 1e-9
