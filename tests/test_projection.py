import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherework.errors import (
    ConsistencyError,
    DimMismatchError,
    EnergyOutOfRangeError,
    NotUnitaryError,
    RankError,
    StateValidationError,
)
from coherework.linalg import hs_norm
from coherework.projection import (
    ProjectorSet,
    WorkReport,
    energy_projectors,
    entropy_change_bound,
    max_work_fixed_energy,
    optimal_projection_work,
    overlap_matrix,
    project,
    projection_angle_factor,
)
from coherework.sampling import (
    random_density_matrix,
    random_hamiltonian,
    random_projector_set,
)
from coherework.states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    average_energy,
    bloch_qubit,
    gibbs_state,
    von_neumann_entropy,
)


def binary_entropy(x):
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
COMPUTATIONAL = ProjectorSet.from_basis(np.eye(2, dtype=complex))


class TestProjectorSet:
    def test_energy_projectors_complete(self):
        h = random_hamiltonian(4, np.random.default_rng(1))
        p = energy_projectors(h)
        assert p.dim == 4 and p.is_rank_one

    def test_degenerate_hamiltonian_gives_higher_rank(self):
        h = Hamiltonian(np.diag([1.0, 1.0, 2.0]).astype(complex))
        p = energy_projectors(h)
        assert p.ranks == (2, 1)
        with pytest.raises(RankError):
            p.require_rank_one()

    def test_rejects_missing_column(self):
        with pytest.raises(StateValidationError, match="partition"):
            ProjectorSet(np.eye(3), [[0], [2]])

    def test_rejects_column_in_two_clusters(self):
        with pytest.raises(StateValidationError, match="partition"):
            ProjectorSet(np.eye(3), [[0, 1], [1, 2]])

    def test_rejects_empty_cluster(self):
        with pytest.raises(StateValidationError, match="nonempty"):
            ProjectorSet(np.eye(2), [[0, 1], []])

    def test_from_basis_requires_unitary(self):
        with pytest.raises(NotUnitaryError):
            ProjectorSet.from_basis(np.ones((2, 2)))

    def test_basis_vectors_roundtrip(self):
        p = random_projector_set(3, np.random.default_rng(2))
        phi = p.basis_vectors()
        for k in range(3):
            rebuilt = np.outer(phi[:, k], phi[:, k].conj())
            assert hs_norm(rebuilt - p.projectors[k]) < 1e-10

    def test_clusters_give_higher_rank_projectors(self):
        u = random_projector_set(4, np.random.default_rng(9)).basis
        p = ProjectorSet(u, [[3, 0], [1], [2]])
        assert p.ranks == (2, 1, 1) and len(p) == 3
        cols = u[:, [3, 0]]
        assert hs_norm(p.projectors[0] - cols @ cols.conj().T) < 1e-12
        assert hs_norm(sum(p.projectors) - np.eye(4)) < 1e-10


class TestProject:
    def test_diagonal_state_unchanged(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        out = project(rho, COMPUTATIONAL)
        assert hs_norm(out.mat - rho.mat) < 1e-14

    def test_plus_state_decoheres_to_mixed(self):
        out = project(PLUS, COMPUTATIONAL)
        assert hs_norm(out.mat - np.eye(2) / 2) < 1e-14

    def test_tilted_qubit_populations(self, canonical_qubit):
        rho, h, _ = canonical_qubit
        out = project(rho, energy_projectors(h))
        np.testing.assert_allclose(np.diag(out.mat).real, [0.65, 0.35], atol=1e-12)
        assert abs(out.mat[0, 1]) < 1e-14

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rho = random_density_matrix(d, rng)
            p = random_projector_set(d, rng)
            once = project(rho, p)
            twice = project(once, p)
            assert hs_norm(once.mat - twice.mat) < 1e-12
            assert np.trace(once.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_never_decreases_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            rho = random_density_matrix(d, rng)
            p = random_projector_set(d, rng)
            assert (von_neumann_entropy(project(rho, p))
                    >= von_neumann_entropy(rho) - 1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            project(DensityMatrix(np.eye(3) / 3), COMPUTATIONAL)



def _raw_project(mat, projectors):
    return sum(pk @ mat @ pk for pk in projectors)


class TestProjectAgainstRawOracle:
    """project() against sum_k P_k rho P_k built from the raw matrices."""

    def test_random_rank_one_family(self):
        rng = np.random.default_rng(61)
        for d in (2, 5, 8):
            rho = random_density_matrix(d, rng)
            p = random_projector_set(d, rng)
            out = project(rho, p)
            assert hs_norm(out.mat - _raw_project(rho.mat, p.projectors)) < 1e-13

    def test_degenerate_energy_family(self):
        rng = np.random.default_rng(62)
        u = random_projector_set(8, rng).basis
        e = np.array([-1.0, 0.0, 0.5, 0.5, 0.5, 1.0, 2.0, 3.0])
        h = Hamiltonian((u * e) @ u.conj().T)
        p = energy_projectors(h)
        assert sorted(p.ranks) == [1, 1, 1, 1, 1, 3]
        rho = random_density_matrix(8, rng)
        out = project(rho, p)
        assert hs_norm(out.mat - _raw_project(rho.mat, p.projectors)) < 1e-13

    def test_lifted_family(self):
        from coherework.correlations import _lift
        rng = np.random.default_rng(63)
        p = _lift(random_projector_set(3, rng), 2)
        assert p.dim == 6 and p.ranks == (2, 2, 2)
        rho = random_density_matrix(6, rng)
        out = project(rho, p)
        assert hs_norm(out.mat - _raw_project(rho.mat, p.projectors)) < 1e-13

class TestOptimalProjectionWork:
    def test_classical_state_zero_work(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        rep = optimal_projection_work(rho, h, energy_projectors(h),
                                      Temperature(beta=1.0))
        assert abs(rep.work) < 1e-12

    def test_pure_unbiased_qubit_gives_t_ln2(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        rho = bloch_qubit(1.0, math.pi / 2)
        t = Temperature(beta=0.7)
        rep = optimal_projection_work(rho, h, energy_projectors(h), t)
        assert rep.entropy_change == pytest.approx(math.log(2), abs=1e-12)
        assert rep.work == pytest.approx(math.log(2) / 0.7, abs=1e-12)

    def test_worked_qubit_value(self, canonical_qubit):
        rho, h, t = canonical_qubit
        rep = optimal_projection_work(rho, h, energy_projectors(h), t)
        expected = binary_entropy(0.65) - binary_entropy(0.8)
        assert expected == pytest.approx(0.14704421549644464, abs=1e-15)
        assert rep.work == pytest.approx(expected, abs=1e-12)
        assert rep.energy_change == pytest.approx(0.0, abs=1e-12)

    def test_bookkeeping_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            p = random_projector_set(d, rng)
            t = Temperature(beta=float(rng.uniform(0.2, 4.0)))
            rep = optimal_projection_work(rho, h, p, t)
            assert rep.work + rep.energy_change == pytest.approx(
                rep.heat_absorbed, abs=1e-12)
            assert rep.heat_absorbed == pytest.approx(
                rep.entropy_change / t.beta, abs=1e-12)
            assert rep.entropy_change >= -1e-10

    def test_energy_basis_conserves_energy(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            eta = project(rho, energy_projectors(h))
            assert average_energy(eta, h) == pytest.approx(
                average_energy(rho, h), abs=1e-10)


class TestWorkReport:
    def test_first_law_enforced(self):
        with pytest.raises(ConsistencyError, match="first law by 1.000e"):
            WorkReport(work=1.0, entropy_change=0.0,
                       energy_change=0.0, heat_absorbed=0.0)

    def test_scale_is_not_stored(self):
        rep = WorkReport(work=1.0, entropy_change=0.0, energy_change=-1.0,
                         heat_absorbed=0.0, scale=5.0)
        assert sorted(vars(rep)) == ["energy_change", "entropy_change", "heat_absorbed", "work"]
        assert not hasattr(rep, "scale")


class TestEntropyChangeBound:
    def test_same_basis_gives_zero(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        m = overlap_matrix(rho, COMPUTATIONAL)
        assert projection_angle_factor(m) == pytest.approx(0.0, abs=1e-12)
        assert entropy_change_bound(rho, COMPUTATIONAL) == pytest.approx(
            0.0, abs=1e-12)

    def test_pure_unbiased_qubit(self):
        rho = bloch_qubit(1.0, math.pi / 2)
        bound = entropy_change_bound(rho, COMPUTATIONAL)
        assert bound == pytest.approx(0.25, abs=1e-12)
        gain = (von_neumann_entropy(project(rho, COMPUTATIONAL))
                - von_neumann_entropy(rho))
        assert gain == pytest.approx(math.log(2), abs=1e-12)
        assert bound <= gain

    def test_worked_qubit_closed_form(self, canonical_qubit):
        rho, h, _ = canonical_qubit
        bound = entropy_change_bound(rho, energy_projectors(h))
        closed = 0.25 * 0.6**2 * math.sin(math.pi / 3) ** 2
        assert closed == pytest.approx(0.0675, abs=1e-15)
        assert bound == pytest.approx(closed, abs=1e-12)
        assert bound <= binary_entropy(0.65) - binary_entropy(0.8)

    def test_closed_form_matches_general(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = float(rng.uniform(0, 1))
            theta = float(rng.uniform(0, math.pi))
            rho = bloch_qubit(a, theta)
            closed = 0.25 * (2 * a - 1) ** 2 * math.sin(theta) ** 2
            assert entropy_change_bound(rho, COMPUTATIONAL) == pytest.approx(
                closed, abs=1e-12)

    def test_bound_below_entropy_change(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            rho = random_density_matrix(d, rng)
            p = random_projector_set(d, rng)
            gain = (von_neumann_entropy(project(rho, p))
                    - von_neumann_entropy(rho))
            assert entropy_change_bound(rho, p) <= gain + 1e-8

    def test_rank_one_required(self):
        h = Hamiltonian(np.diag([1.0, 1.0, 2.0]).astype(complex))
        rho = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(RankError):
            entropy_change_bound(rho, energy_projectors(h))


def qubit_overlap_matrix(theta: float) -> np.ndarray:
    """Closed-form qubit overlap matrix for bases at angle theta."""
    c = math.cos(theta)
    return 0.5 * np.array([[1.0 + c, 1.0 - c], [1.0 - c, 1.0 + c]])


class TestQubitOverlapMatrix:
    def test_aligned(self):
        np.testing.assert_allclose(qubit_overlap_matrix(0.0), np.eye(2),
                                   atol=1e-15)

    def test_unbiased(self):
        m = qubit_overlap_matrix(math.pi / 2)
        np.testing.assert_allclose(m, np.full((2, 2), 0.5), atol=1e-15)
        w = np.linalg.eigvalsh(m.T @ m)
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-12)
        assert projection_angle_factor(m) == pytest.approx(1.0, abs=1e-12)

    def test_pi_over_three(self):
        m = qubit_overlap_matrix(math.pi / 3)
        w = np.linalg.eigvalsh(m.T @ m)
        np.testing.assert_allclose(w, [0.25, 1.0], atol=1e-12)
        assert projection_angle_factor(m) == pytest.approx(0.75, abs=1e-12)

    def test_doubly_stochastic(self):
        m = qubit_overlap_matrix(1.234)
        np.testing.assert_allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(m.sum(axis=1), [1.0, 1.0], atol=1e-15)

    def test_matches_general_overlap_matrix(self):
        # same angle factor as the bloch state against the computational basis
        for theta in (0.3, 1.0, 2.0):
            rho = bloch_qubit(0.8, theta)
            general = overlap_matrix(rho, COMPUTATIONAL)
            closed = qubit_overlap_matrix(theta)
            assert projection_angle_factor(general) == pytest.approx(
                projection_angle_factor(closed), abs=1e-12)
            assert sorted(general.ravel()) == pytest.approx(
                sorted(closed.ravel()), abs=1e-12)


class TestAngleFactorRange:
    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            rho = random_density_matrix(d, rng)
            p = random_projector_set(d, rng)
            factor = projection_angle_factor(overlap_matrix(rho, p))
            assert 0.0 <= factor <= 1.0


class TestMaxWorkFixedEnergy:
    def test_gibbs_input_is_fixed_point(self):
        h = random_hamiltonian(4, np.random.default_rng(10))
        t = Temperature(beta=1.7)
        res = max_work_fixed_energy(gibbs_state(h, t), h, t)
        assert res.lambda_star == pytest.approx(1.7, abs=1e-7)
        assert res.work == pytest.approx(0.0, abs=1e-9)

    def test_qubit_matches_projection_work(self, canonical_qubit):
        rho, h, t = canonical_qubit
        res = max_work_fixed_energy(rho, h, t)
        rep = optimal_projection_work(rho, h, energy_projectors(h), t)
        assert res.work == pytest.approx(rep.work, abs=1e-10)

    def test_qutrit_beats_projection(self):
        h = Hamiltonian(np.diag([-1.0, 0.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        rho = random_density_matrix(3, np.random.default_rng(909))
        res = max_work_fixed_energy(rho, h, t)
        rep = optimal_projection_work(rho, h, energy_projectors(h), t)
        assert res.work > rep.work + 1e-6
        # the optimal final state is Gibbs, not the projected state
        sigma = np.exp(-res.lambda_star * h.eigenvalues)
        sigma /= sigma.sum()
        eta_pops = np.real(np.diag(rho.mat))
        assert np.abs(np.sort(sigma) - np.sort(eta_pops)).max() > 1e-3

    @pytest.mark.parametrize("p, e, lam", [([1.0, 1e-29], [0.0, 1.0], 32.0),
                                           ([1e-29, 1.0], [-1.0, 0.0], -32.0)],
                             ids=["hi_doubles", "lo_doubles"])
    def test_root_outside_the_first_bracket(self, p, e, lam):
        # U lies 1e-29 inside the spectrum, so the root is beyond the first
        # bracket [-64, 64]; after one doubling the first midpoint meets the
        # stop rule |f| < 1e-12 (E_max - E_min), since f(+-32) is about e^-32
        rho = DensityMatrix(np.diag(p).astype(complex))
        h = Hamiltonian(np.diag(e).astype(complex))
        w = h.eigenvalues
        u = float(np.real(np.trace(rho.mat @ h.mat)))
        first = np.exp(-np.sign(lam) * 64.0 * w)
        assert np.sign(lam) * (first @ w / first.sum() - u) > 0.0
        res = max_work_fixed_energy(rho, h, Temperature(beta=1.0))
        assert res.lambda_star == lam
        assert res.work == pytest.approx(1.27e-14, rel=0.01)

    def test_energy_out_of_range(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        ground = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(EnergyOutOfRangeError):
            max_work_fixed_energy(ground, h, Temperature(beta=1.0))

    def test_negative_lambda_branch(self):
        # population-inverted state: matching Gibbs needs lambda < 0
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        res = max_work_fixed_energy(rho, h, Temperature(beta=1.0))
        assert res.lambda_star < 0
        assert res.work == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.floats(-12.0, 9.0))
def test_fixed_energy_work_rescales_with_units(seed, dim, log_s):
    # (s H, beta / s) is the same physics in other units, so the bisection's
    # stop must scale with H: W(sH, beta/s) = s W(H, beta)
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(dim, rng)
    hm = random_hamiltonian(dim, rng).mat
    beta = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
    s = 10.0 ** log_s
    w = max_work_fixed_energy(rho, Hamiltonian(hm), Temperature(beta)).work
    w_scaled = max_work_fixed_energy(rho, Hamiltonian(s * hm), Temperature(beta / s)).work
    assert abs(w_scaled - s * w) <= 1e-9 * s * max(1.0, abs(w))
