import math

import numpy as np
import pytest

from coherework.errors import (
    CohereworkError,
    DimMismatchError,
    NonFiniteError,
    NonHermitianError,
    NonSquareError,
    StateValidationError,
)
from coherework.linalg import hermitian_part, hs_norm
from coherework.projection import energy_projectors, max_work_fixed_energy
from coherework.sampling import (
    random_density_matrix,
    random_hamiltonian,
    random_unitary,
)
from coherework.states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    average_energy,
    bloch_qubit,
    free_energy,
    gibbs_state,
    partial_trace,
    purify,
    von_neumann_entropy,
)


def shannon(probs):
    return float(sum(-p * math.log(p) for p in probs if p > 0))


class TestTemperature:
    def test_beta_positive(self):
        assert Temperature(beta=2.0).beta == 2.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_beta(self, bad):
        with pytest.raises(StateValidationError):
            Temperature(beta=bad)


class TestHamiltonian:
    def test_huge_entry_is_non_finite_error(self):
        # eigh of this matrix gives NaN eigenvalues
        with pytest.raises(NonFiniteError):
            Hamiltonian(np.diag([1e308, 1.0]))


class TestDensityMatrix:
    def test_trace_violation_names_trace(self):
        with pytest.raises(StateValidationError, match="DensityMatrix: trace"):
            DensityMatrix(np.diag([0.5, 0.4]))

    def test_hermiticity_violation(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(StateValidationError, match="Hermitian"):
            DensityMatrix(m)

    def test_negativity_violation(self):
        with pytest.raises(StateValidationError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.1, -0.1]))

    def test_noise_band_clamped_on_read(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.spectrum().min() == 0.0

    def test_non_square(self):
        with pytest.raises(StateValidationError, match="square"):
            DensityMatrix(np.ones((2, 3)) / 6)

    def test_immutable(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.3


@pytest.mark.parametrize("ctor", [DensityMatrix, Hamiltonian])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_matrix_rejected(ctor, bad):
    with pytest.raises(CohereworkError, match="NaN or infinite"):
        ctor([[bad, 0.0], [0.0, 1.0]])


class TestEntropy:
    def test_pure_state_zero(self):
        # exact unit eigenvalue gives exactly zero; a generic pure state
        # carries only an O(eps) rounding residue and is never negative
        assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0]))) == 0.0
        psi = np.array([0.6, 0.8j])
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_maximally_mixed(self, d):
        assert von_neumann_entropy(DensityMatrix(np.eye(d) / d)) == pytest.approx(
            math.log(d), abs=1e-12)

    def test_two_level_example(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        expected = shannon([0.25, 0.75])
        assert expected == pytest.approx(0.5623351446188083, abs=1e-15)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            rho = random_density_matrix(d, rng)
            v = random_unitary(d, rng)
            rotated = DensityMatrix(v @ rho.mat @ v.conj().T)
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-10)

    def test_bounded_by_log_dim(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            s = von_neumann_entropy(random_density_matrix(d, rng))
            assert -1e-12 <= s <= math.log(d) + 1e-10


class TestGibbsState:
    def test_infinite_temperature_limit(self):
        h = random_hamiltonian(4, np.random.default_rng(5))
        tau = gibbs_state(h, Temperature(beta=1e-12))
        assert hs_norm(tau.mat - np.eye(4) / 4) < 1e-10

    def test_qubit_value(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        tau = gibbs_state(h, Temperature(beta=1.0))
        p0 = math.e / (math.e + 1 / math.e)
        assert p0 == pytest.approx(0.8807970779778824, abs=1e-15)
        np.testing.assert_allclose(np.diag(tau.mat).real, [p0, 1 - p0], atol=1e-12)

    def test_degenerate_ground_space_limit(self):
        h = Hamiltonian(np.diag([0.0, 0.0, 5.0]).astype(complex))
        tau = gibbs_state(h, Temperature(beta=50.0))
        target = np.diag([0.5, 0.5, 0.0])
        assert hs_norm(tau.mat - target) < 1e-8

    def test_commutes_with_hamiltonian(self):
        h = random_hamiltonian(5, np.random.default_rng(6))
        tau = gibbs_state(h, Temperature(beta=0.7))
        assert hs_norm(tau.mat @ h.mat - h.mat @ tau.mat) < 1e-10

    def test_overflow_safe_at_huge_beta(self):
        h = Hamiltonian(np.diag([-100.0, 100.0]).astype(complex))
        tau = gibbs_state(h, Temperature(beta=50.0))
        assert np.isfinite(tau.mat).all()

    def test_maximises_entropy_at_fixed_energy(self):
        rng = np.random.default_rng(23)
        h = random_hamiltonian(4, rng)
        t = Temperature(beta=1.3)
        sigma_star = gibbs_state(h, t)
        u_star = average_energy(sigma_star, h)
        s_star = von_neumann_entropy(sigma_star)
        lam_star = max_work_fixed_energy(sigma_star, h, t).lambda_star
        assert lam_star == pytest.approx(1.3, abs=1e-7)
        # move each random state onto the u_star energy shell by mixing it
        # with whichever extreme eigenstate lies on the other side
        extremes = h.eigenvectors[:, [0, -1]]
        for _ in range(100):
            rho = random_density_matrix(4, rng)
            u = average_energy(rho, h)
            col = 1 if u < u_star else 0
            v = extremes[:, col]
            edge = float(h.eigenvalues[[0, -1][col]])
            mu = (edge - u_star) / (edge - u)
            mix = DensityMatrix(mu * rho.mat
                                + (1 - mu) * np.outer(v, v.conj()))
            assert average_energy(mix, h) == pytest.approx(u_star, abs=1e-8)
            assert von_neumann_entropy(mix) <= s_star + 1e-8


class TestEnergies:
    def test_traceless_on_maximally_mixed(self):
        h = Hamiltonian(np.diag([-2.0, 0.5, 1.5]).astype(complex))
        rho = DensityMatrix(np.eye(3) / 3)
        assert average_energy(rho, h) == pytest.approx(0.0, abs=1e-14)

    def test_ground_state(self):
        h = random_hamiltonian(4, np.random.default_rng(7))
        v0 = h.eigenvectors[:, 0]
        rho = DensityMatrix(np.outer(v0, v0.conj()))
        assert average_energy(rho, h) == pytest.approx(
            h.eigenvalues[0], abs=1e-12)

    def test_tilted_qubit_energy(self, canonical_qubit):
        rho, h, _ = canonical_qubit
        # overlap formula: p = a (1+cos)/2 + (1-a)(1-cos)/2 = 0.65, U = -(2p-1)
        assert average_energy(rho, h) == pytest.approx(-0.3, abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            average_energy(DensityMatrix(np.eye(2) / 2),
                           Hamiltonian(np.eye(3).astype(complex)))


class TestFreeEnergy:
    def test_equilibrium_value(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        f = free_energy(gibbs_state(h, t), h, t)
        expected = -math.log(math.e + 1 / math.e)
        assert expected == pytest.approx(-1.1269280110429727, abs=1e-15)
        assert f == pytest.approx(expected, abs=1e-12)

    def test_pure_eigenstate(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert free_energy(rho, h, Temperature(beta=2.0)) == pytest.approx(
            -1.0, abs=1e-12)

    def test_gibbs_minimises(self):
        rng = np.random.default_rng(8)
        h = random_hamiltonian(3, rng)
        t = Temperature(beta=0.9)
        f_star = free_energy(gibbs_state(h, t), h, t)
        for _ in range(100):
            rho = random_density_matrix(3, rng)
            assert free_energy(rho, h, t) >= f_star - 1e-10

    def test_partition_function_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = random_hamiltonian(4, rng)
            beta = float(rng.uniform(0.2, 3.0))
            t = Temperature(beta=beta)
            ln_z = math.log(np.exp(-beta * h.eigenvalues).sum())
            assert free_energy(gibbs_state(h, t), h, t) == pytest.approx(
                -ln_z / beta, abs=1e-10)


class TestPartialTrace:
    def test_product_recovery(self):
        rng = np.random.default_rng(11)
        rho_s = random_density_matrix(2, rng)
        rho_a = random_density_matrix(3, rng)
        joint = DensityMatrix(np.kron(rho_s.mat, rho_a.mat))
        assert hs_norm(partial_trace(joint, (2, 3), 0).mat - rho_s.mat) < 1e-12
        assert hs_norm(partial_trace(joint, (2, 3), 1).mat - rho_a.mat) < 1e-12

    def test_bell_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / math.sqrt(2)
        bell = DensityMatrix(np.outer(psi, psi.conj()))
        for keep in (0, 1):
            reduced = partial_trace(bell, (2, 2), keep)
            assert hs_norm(reduced.mat - np.eye(2) / 2) < 1e-12

    def test_duality_with_lifted_observables(self):
        rng = np.random.default_rng(12)
        rho = random_density_matrix(6, rng)
        reduced = partial_trace(rho, (2, 3), 0)
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            x = (g + g.conj().T) / 2
            lhs = np.trace(reduced.mat @ x)
            rhs = np.trace(rho.mat @ np.kron(x, np.eye(3)))
            assert abs(lhs - rhs) < 1e-12

    def test_bad_factorisation(self):
        rho = DensityMatrix(np.eye(6) / 6)
        with pytest.raises(DimMismatchError):
            partial_trace(rho, (2, 4), 0)


def purify_by_kron(rho):
    """purify summing one np.kron term per eigenpair, as it was first written."""
    w = rho.spectrum()
    v = rho.eigenvectors
    d = rho.dim
    psi = np.zeros(d * d, dtype=complex)
    for l in range(d):
        if w[l] > 0.0:
            psi += math.sqrt(w[l]) * np.kron(v[:, l], np.eye(d)[:, l])
    psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


def state_of_rank(d, rank, rng):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestPurify:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_kron_loop_byte_for_byte(self, d):
        # full rank and every deficient rank, where zero weights give -0.0
        rng = np.random.default_rng(100 + d)
        for rank in range(1, d + 1):
            for _ in range(3):
                rho = state_of_rank(d, rank, rng)
                got, ref = purify(rho), purify_by_kron(rho)
                assert got.mat.tobytes() == ref.mat.tobytes()
                assert got._eigenvalues.tobytes() == ref._eigenvalues.tobytes()
                assert got.eigenvectors.tobytes() == ref.eigenvectors.tobytes()

    def test_pure_input_gives_product(self):
        psi = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi))
        big = purify(rho)
        assert von_neumann_entropy(big) == pytest.approx(0.0, abs=1e-12)
        for keep in (0, 1):
            marginal = partial_trace(big, (2, 2), keep)
            assert von_neumann_entropy(marginal) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_gives_bell_type(self):
        big = purify(DensityMatrix(np.eye(2) / 2))
        psi = big.eigenvectors[:, -1] * math.sqrt(big.spectrum()[-1])
        schmidt = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        np.testing.assert_allclose(schmidt, [1 / math.sqrt(2)] * 2, atol=1e-10)

    def test_schmidt_coefficients_and_roundtrip(self):
        rho = DensityMatrix(np.diag([0.8, 0.2]))
        big = purify(rho)
        psi = big.eigenvectors[:, -1] * math.sqrt(big.spectrum()[-1])
        schmidt = np.sort(np.linalg.svd(psi.reshape(2, 2), compute_uv=False))
        np.testing.assert_allclose(schmidt, np.sqrt([0.2, 0.8]), atol=1e-10)
        assert hs_norm(partial_trace(big, (2, 2), 0).mat - rho.mat) < 1e-12

    def test_random_roundtrip(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 4):
            rho = random_density_matrix(d, rng)
            big = purify(rho)
            assert von_neumann_entropy(big) == pytest.approx(0.0, abs=1e-10)
            assert hs_norm(partial_trace(big, (d, d), 0).mat - rho.mat) < 1e-10


class TestBlochQubit:
    def test_populations_follow_overlap_formula(self):
        for a in (0.5, 0.65, 0.8, 1.0):
            for theta in (0.0, 0.7, math.pi / 3, math.pi / 2):
                rho = bloch_qubit(a, theta)
                p = a * (1 + math.cos(theta)) / 2 + (1 - a) * (1 - math.cos(theta)) / 2
                assert rho.mat[0, 0].real == pytest.approx(p, abs=1e-14)

    def test_eigenvalues_are_a(self):
        rho = bloch_qubit(0.8, 1.1)
        np.testing.assert_allclose(rho.spectrum(), [0.2, 0.8], atol=1e-12)

    def test_invalid_a(self):
        with pytest.raises(StateValidationError):
            bloch_qubit(1.2, 0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta(self, theta):
        with pytest.raises(NonFiniteError, match="theta must be finite"):
            bloch_qubit(0.8, theta)


class TestHamiltonian:
    def test_eigenprojectors_complete_and_orthogonal(self):
        h = random_hamiltonian(5, np.random.default_rng(16))
        projectors = energy_projectors(h).projectors
        total = sum(projectors)
        assert hs_norm(total - np.eye(5)) < 1e-10
        for i, pi in enumerate(projectors):
            for j, pj in enumerate(projectors):
                expected = pi if i == j else 0.0
                assert hs_norm(pi @ pj - expected) < 1e-10

    def test_reconstruction_from_levels(self):
        h = Hamiltonian(np.diag([1.0, 1.0, 3.0]).astype(complex))
        rebuilt = sum(e * p for e, p in zip(h.energies, energy_projectors(h).projectors))
        assert hs_norm(rebuilt - h.mat) < 1e-10

    def test_degenerate_clustering(self):
        h = Hamiltonian(np.diag([2.0, 2.0 + 1e-12, 5.0]).astype(complex))
        assert len(energy_projectors(h)) == 2
        np.testing.assert_array_equal(h.degeneracies, [2, 1])

    @pytest.mark.parametrize("diag", [
        [-1.0, 1.0], [0.3, -2.5, 7.0, 1e-3], [0.0, -0.0, 4.0],
        [2.0, 2.0 + 1e-12, 5.0], [0.0, 1.0, 1.0, 2.0], [1.0] * 4,
        [-3.0, -3.0 + 1e-11, 0.5, 0.5 - 1e-12, 0.5 + 1e-12, 9.0],
    ])
    def test_energies_match_mean_of_every_level(self, diag):
        # a one-eigenvalue level skips np.mean, which cannot move its value
        u = random_unitary(len(diag), np.random.default_rng(len(diag)))
        for h in (Hamiltonian(np.diag(diag).astype(complex)),
                  Hamiltonian((u * np.array(diag)) @ u.conj().T)):
            ref = np.array([float(np.mean(h.eigenvalues[idx])) for idx in h.clusters])
            assert h.energies.tobytes() == ref.tobytes()


class TestOneHermitianValidator:
    def test_density_matrix_errors_keep_type_and_prefix(self):
        with pytest.raises(StateValidationError, match="^DensityMatrix: .*Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
        with pytest.raises(StateValidationError, match="^DensityMatrix: .*square"):
            DensityMatrix(np.ones((2, 3)) / 6)
        with pytest.raises(StateValidationError, match="^DensityMatrix: .*2-d"):
            DensityMatrix(np.ones(4) / 4)

    def test_density_matrix_nan_stays_non_finite(self):
        with pytest.raises(NonFiniteError):
            DensityMatrix([[math.nan, 0.0], [0.0, 1.0]])

    def test_hamiltonian_raises_validator_errors(self):
        with pytest.raises(NonSquareError):
            Hamiltonian(np.zeros((2, 3)))
        with pytest.raises(NonHermitianError):
            Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_constructors_store_hermitian_part(self):
        m = random_hamiltonian(4, np.random.default_rng(3)).mat.copy()
        m[0, 1] += 1e-13
        np.testing.assert_array_equal(Hamiltonian(m).mat, hermitian_part(m))
        r = random_density_matrix(4, np.random.default_rng(3)).mat.copy()
        r[1, 2] += 1e-14
        np.testing.assert_array_equal(DensityMatrix(r).mat, hermitian_part(r))

    def test_hamiltonian_spectrum_matches_its_matrix(self):
        h = random_hamiltonian(6, np.random.default_rng(8))
        rebuilt = (h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T
        assert hs_norm(rebuilt - h.mat) <= 1e-12 * hs_norm(h.mat)


@pytest.mark.parametrize("scale", [1e6, 1e8, 1e12])
def test_average_energy_imaginary_check_follows_energy_scale(scale):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        scaled = Hamiltonian(scale * h.mat)
        assert average_energy(rho, scaled) == pytest.approx(
            scale * average_energy(rho, h), rel=1e-12, abs=1e-12 * scale)
