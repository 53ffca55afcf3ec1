import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherework.errors import (
    CohereworkError,
    NonFiniteError,
    NonHermitianError,
    NonSquareError,
)
from coherework.linalg import (
    as_matrix,
    eigenvalue_clusters,
    hermitian_eig,
    hermitian_part,
    hs_norm,
    is_hermitian,
    is_unitary,
    kron,
    log_partition,
    shannon,
    thermal,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


class TestHermitianEig:
    def test_diagonal_input(self):
        dec = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
        # eigenvectors are basis vectors up to phase
        np.testing.assert_allclose(
            np.abs(dec.eigenvectors),
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
            atol=1e-12,
        )

    def test_pauli_x(self):
        dec = hermitian_eig(PAULI_X)
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(dec.eigenvectors), [[s, s], [s, s]],
                                   atol=1e-12)
        # minus eigenvector has opposite signs, plus has equal signs
        v_minus = dec.eigenvectors[:, 0]
        v_plus = dec.eigenvectors[:, 1]
        assert abs(v_minus[0] * v_minus[1].conjugate() + 0.5) < 1e-12
        assert abs(v_plus[0] * v_plus[1].conjugate() - 0.5) < 1e-12

    def test_random_residual_and_reconstruction(self):
        a = random_hermitian(6, seed=1234)
        dec = hermitian_eig(a)
        residual = hs_norm(a @ dec.eigenvectors
                           - dec.eigenvectors * dec.eigenvalues)
        assert residual < 1e-10 * hs_norm(a)
        np.testing.assert_allclose(dec.reconstruct(), a, atol=1e-10)

    def test_orthonormal_columns(self):
        dec = hermitian_eig(random_hermitian(5, seed=77))
        v = dec.eigenvectors
        assert hs_norm(v.conj().T @ v - np.eye(5)) < 1e-10

    def test_ascending_order(self):
        dec = hermitian_eig(random_hermitian(8, seed=3))
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_deterministic(self):
        a = random_hermitian(6, seed=9)
        d1 = hermitian_eig(a)
        d2 = hermitian_eig(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            hermitian_eig(np.zeros((2, 3)))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError):
            hermitian_eig(m)

    def test_tolerance_is_relative(self):
        a = random_hermitian(4, seed=5)
        a[0, 1] += 1e-13  # breaks hermiticity below the default tolerance
        hermitian_eig(a)
        with pytest.raises(NonHermitianError):
            hermitian_eig(a, tol=1e-16)


class TestNorms:
    def test_zero_matrix(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_identity(self, d):
        assert hs_norm(np.eye(d)) == pytest.approx(np.sqrt(d), abs=1e-14)

    def test_qubit_bloch_length(self):
        # ||rho - 1/2||_2^2 equals |s|^2 / 2 for Bloch vector s
        rng = np.random.default_rng(10)
        for _ in range(20):
            s = rng.normal(size=3)
            s *= rng.uniform(0, 1) / np.linalg.norm(s)
            rho = 0.5 * (np.eye(2) + s[0] * PAULI_X
                         + s[1] * np.array([[0, -1j], [1j, 0]]) + s[2] * PAULI_Z)
            assert hs_norm(rho - np.eye(2) / 2) ** 2 == pytest.approx(
                np.dot(s, s) / 2, abs=1e-14)

    def test_sum_of_squares(self):
        a = np.arange(12).reshape(3, 4) + 1j * np.arange(12).reshape(3, 4)[::-1]
        assert hs_norm(a) ** 2 == pytest.approx(
            float((np.abs(a) ** 2).sum()), rel=1e-14)


class TestKron:
    def test_identity_product(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        out = kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        np.testing.assert_allclose(np.diag(out), [10.0, 14.0, 15.0, 21.0])

    def test_x_tensor_z_on_00(self):
        ket00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        out = kron(PAULI_X, PAULI_Z) @ ket00
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                for d in rng.integers(1, 4, size=3)]
        left = kron(kron(mats[0], mats[1]), mats[2])
        right = kron(mats[0], kron(mats[1], mats[2]))
        # entrywise up to the reassociation rounding of the triple products
        np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-13)


class TestPredicates:
    def test_is_hermitian(self):
        assert is_hermitian(PAULI_X)
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not is_hermitian(np.zeros((2, 3)))

    def test_is_unitary(self):
        assert is_unitary(np.eye(3))
        dec = hermitian_eig(random_hermitian(4, seed=2))
        assert is_unitary(dec.eigenvectors)
        assert not is_unitary(2 * np.eye(3))


class TestAsMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(CohereworkError, match="NaN or infinite"):
            as_matrix([[1.0, bad], [0.0, 1.0]])

    def test_finite_passes_without_copy(self):
        m = np.eye(2, dtype=complex)
        assert as_matrix(m) is m


class TestShannon:
    def test_zeros_skipped(self):
        assert shannon(np.array([0.5, 0.0, 0.5])) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_point_mass_is_zero(self):
        assert shannon(np.array([0.0, 1.0])) == 0.0


class TestEigenvalueClusters:
    def test_well_separated(self):
        clusters = eigenvalue_clusters(np.array([0.0, 1.0, 2.0]))
        assert [list(c) for c in clusters] == [[0], [1], [2]]

    def test_degenerate_group(self):
        clusters = eigenvalue_clusters(np.array([0.0, 1e-12, 1.0]))
        assert [list(c) for c in clusters] == [[0, 1], [2]]

    def test_empty(self):
        assert eigenvalue_clusters(np.array([])) == []

    def test_gap_scales_with_largest_magnitude(self):
        # 1e-6 apart: one level at the scale 1e3, two at the scale 1
        big = eigenvalue_clusters(np.array([-1e3, 0.0, 1e-6]))
        assert [list(c) for c in big] == [[0], [1, 2]]
        small = eigenvalue_clusters(np.array([-1.0, 0.0, 1e-6]))
        assert [list(c) for c in small] == [[0], [1], [2]]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_reconstruction_property(seed, dim):
    a = random_hermitian(dim, seed)
    dec = hermitian_eig(a)
    assert hs_norm(dec.reconstruct() - a) <= 1e-10 * max(hs_norm(a), 1e-30)


def direct_thermal(e, beta, g=None):
    """g_k e^(-beta e_k) / sum_j g_j e^(-beta e_j), term by term."""
    g = [1.0] * len(e) if g is None else list(g)
    w = [gk * math.exp(-beta * ek) for ek, gk in zip(e, g)]
    z = sum(w)
    return [wk / z for wk in w], math.log(z)


class TestThermal:
    @pytest.mark.parametrize("beta", [0.7, -1.3, 0.0])
    def test_direct_formula(self, beta):
        e = [-0.4, 0.1, 1.2, 2.5]
        p, log_z = direct_thermal(e, beta)
        np.testing.assert_allclose(thermal(np.array(e), beta), p, rtol=1e-14)
        assert log_partition(np.array(e), beta) == pytest.approx(log_z, rel=1e-14, abs=1e-15)

    def test_degeneracies_weight_levels(self):
        e, g = [0.0, 0.5, 2.0], [1.0, 3.0, 2.0]
        p, _ = direct_thermal(e, 1.1, g)
        np.testing.assert_allclose(thermal(np.array(e), 1.1, np.array(g)), p, rtol=1e-14)

    def test_input_not_modified(self):
        e = np.array([0.0, 1.0, 2.0])
        thermal(e, 1.0, np.array([1.0, 2.0, 1.0]))
        thermal(e, 0.0)
        np.testing.assert_array_equal(e, [0.0, 1.0, 2.0])

    def test_rows_match_one_dimensional_calls(self):
        e = np.random.default_rng(4).normal(size=(5, 3))
        rows = thermal(e, 2.0)
        for i in range(5):
            np.testing.assert_array_equal(rows[i], thermal(e[i], 2.0))

    @pytest.mark.parametrize("beta", [1e4, -1e4])
    def test_large_beta_spread_is_finite(self, beta):
        e = np.array([0.0, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = thermal(e, beta)
            log_z = log_partition(e, beta)
        ground = 0 if beta > 0 else 2
        assert p[ground] == 1.0 and p.sum() == 1.0
        assert log_z == pytest.approx(-beta * e[ground], rel=1e-15)


class TestHermitianPart:
    def test_returns_symmetrised_matrix(self):
        a = random_hermitian(4, seed=6)
        a[0, 1] += 1e-13
        np.testing.assert_array_equal(hermitian_part(a), (a + a.conj().T) / 2)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError, match="square"):
            hermitian_part(np.zeros((2, 3)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError, match="not Hermitian"):
            hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            hermitian_part(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_is_hermitian_rejects_nan(self):
        assert not is_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
