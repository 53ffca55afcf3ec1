import math

import numpy as np
import pytest

import coherework.correlations as correlations
from coherework.correlations import (
    BipartiteState,
    delta_correlation,
    global_optimal_work,
    local_project,
    verify_lemma1,
)
from coherework.errors import DimMismatchError, RankError
from coherework.linalg import hs_norm, shannon
from coherework.projection import (
    ProjectorSet,
    energy_projectors,
    optimal_projection_work,
)
from coherework.sampling import (
    random_bipartite_state,
    random_density_matrix,
    random_hamiltonian,
    random_projector_set,
)
from coherework.states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    purify,
    von_neumann_entropy,
)

COMPUTATIONAL = ProjectorSet.from_basis(np.eye(2, dtype=complex))
PLUS_MINUS = ProjectorSet.from_basis(
    np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
BETA1 = Temperature(beta=1.0)


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    return BipartiteState(DensityMatrix(np.outer(psi, psi.conj())), 2, 2)


def product_state(rng, ds=2, da=2):
    rho_s = random_density_matrix(ds, rng)
    rho_a = random_density_matrix(da, rng)
    joint = DensityMatrix(np.kron(rho_s.mat, rho_a.mat))
    return BipartiteState(joint, ds, da), rho_s, rho_a


class TestBipartiteState:
    def test_dims_must_factor(self):
        with pytest.raises(DimMismatchError):
            BipartiteState(DensityMatrix(np.eye(6) / 6), 2, 2)

    def test_marginals(self):
        state, rho_s, rho_a = product_state(np.random.default_rng(81), 2, 3)
        assert hs_norm(state.marginal_s.mat - rho_s.mat) < 1e-12
        assert hs_norm(state.marginal_a.mat - rho_a.mat) < 1e-12


class TestLocalProject:
    def test_product_state_factorises(self):
        state, rho_s, rho_a = product_state(np.random.default_rng(82))
        out = local_project(state, COMPUTATIONAL)
        diag = np.diag(np.diag(rho_s.mat))
        expected = np.kron(diag, rho_a.mat)
        assert hs_norm(out.rho_sa.mat - expected) < 1e-12

    def test_bell_state_becomes_classical(self):
        out = local_project(bell_state(), COMPUTATIONAL)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        assert hs_norm(out.rho_sa.mat - expected) < 1e-12

    def test_output_is_block_diagonal(self):
        rng = np.random.default_rng(83)
        state = random_bipartite_state(2, 3, rng)
        p = random_projector_set(2, rng)
        out = local_project(state, p)
        eye_a = np.eye(3)
        for k, pk in enumerate(p.projectors):
            for l, pl in enumerate(p.projectors):
                if k != l:
                    block = np.kron(pk, eye_a) @ out.rho_sa.mat @ np.kron(pl, eye_a)
                    assert hs_norm(block) < 1e-12

    def test_ancilla_marginal_unchanged(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            state = random_bipartite_state(2, 3, rng)
            p = random_projector_set(2, rng)
            out = local_project(state, p)
            assert hs_norm(out.marginal_a.mat - state.marginal_a.mat) < 1e-10

    def test_system_marginal_is_projected(self):
        rng = np.random.default_rng(85)
        state = random_bipartite_state(3, 2, rng)
        p = random_projector_set(3, rng)
        out = local_project(state, p)
        from coherework.projection import project

        expected = project(state.marginal_s, p)
        assert hs_norm(out.marginal_s.mat - expected.mat) < 1e-11

    def test_rank_one_required(self):
        h = Hamiltonian(np.diag([1.0, 1.0, 2.0]).astype(complex))
        state = random_bipartite_state(3, 2, np.random.default_rng(86))
        with pytest.raises(RankError):
            local_project(state, energy_projectors(h))

    def test_dim_mismatch(self):
        state = random_bipartite_state(3, 2, np.random.default_rng(87))
        with pytest.raises(DimMismatchError):
            local_project(state, COMPUTATIONAL)


class TestDeltaCorrelation:
    def test_product_state_is_zero(self):
        state, _, _ = product_state(np.random.default_rng(88))
        assert delta_correlation(state, COMPUTATIONAL) == pytest.approx(
            0.0, abs=1e-12)

    def test_purification_reaches_marginal_entropy(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            rho_s = random_density_matrix(2, rng)
            state = BipartiteState(purify(rho_s), 2, 2)
            p = random_projector_set(2, rng)
            assert delta_correlation(state, p) == pytest.approx(
                von_neumann_entropy(rho_s), abs=1e-9)

    def test_classical_correlations_still_help(self):
        # mixture of |0><0| (x) sigma_0 and |1><1| (x) sigma_1 probed in the
        # unbiased basis: zero discord in the storage basis, positive delta
        sigma_0 = DensityMatrix(np.diag([0.9, 0.1]))
        sigma_1 = DensityMatrix(np.diag([0.2, 0.8]))
        joint = 0.5 * (np.kron(np.diag([1.0, 0.0]), sigma_0.mat)
                       + np.kron(np.diag([0.0, 1.0]), sigma_1.mat))
        state = BipartiteState(DensityMatrix(joint), 2, 2)
        assert delta_correlation(state, COMPUTATIONAL) == pytest.approx(
            0.0, abs=1e-10)
        assert delta_correlation(state, PLUS_MINUS) > 1e-3

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(90)
        for _ in range(100):
            state = random_bipartite_state(2, 2, rng)
            p = random_projector_set(2, rng)
            delta = delta_correlation(state, p)
            assert delta >= -1e-10
            assert delta <= von_neumann_entropy(state.marginal_s) + 1e-10

    def test_decomposition_identity(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            state = random_bipartite_state(2, 3, rng)
            p = random_projector_set(2, rng)
            eta = local_project(state, p)
            global_gain = (von_neumann_entropy(eta.rho_sa)
                           - von_neumann_entropy(state.rho_sa))
            local_gain = (von_neumann_entropy(eta.marginal_s)
                          - von_neumann_entropy(state.marginal_s))
            assert global_gain == pytest.approx(
                local_gain + delta_correlation(state, p), abs=1e-10)


def conditional_entropy_searched(state, p):
    """The branch sum with numpy's path search on every call, as first written."""
    phi = p.basis_vectors()
    r = state.rho_sa.mat.reshape(state.dim_s, state.dim_a, state.dim_s, state.dim_a)
    blocks = np.einsum("ik,iajb,jk->kab", phi.conj(), r, phi, optimize=True)
    weights = np.einsum("kaa->k", blocks).real
    spectra = np.maximum(
        np.linalg.eigvalsh((blocks + blocks.conj().transpose(0, 2, 1)) / 2.0), 0.0)
    total = 0.0
    for pk, w in zip(weights.tolist(), spectra):
        if pk > correlations._BRANCH_TOL:
            total += pk * shannon(w / pk)
    return total


class TestConditionalEntropy:
    @pytest.mark.parametrize("ds, da", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3),
                                        (3, 2), (3, 3), (4, 4)])
    def test_cached_path_matches_searched_path(self, ds, da):
        rng = np.random.default_rng(10 * ds + da)
        for _ in range(10):
            state = random_bipartite_state(ds, da, rng)
            p = random_projector_set(ds, rng)
            got = correlations._conditional_entropy(state, p)
            assert got.hex() == conditional_entropy_searched(state, p).hex()

    def test_memo_answers_only_the_same_family(self):
        rng = np.random.default_rng(103)
        state = random_bipartite_state(2, 3, rng)
        p, q = random_projector_set(2, rng), random_projector_set(2, rng)

        def fresh(family):
            return delta_correlation(BipartiteState(state.rho_sa, 2, 3), family)

        values = [delta_correlation(state, f) for f in (p, q, p)]
        assert values == [fresh(p), fresh(q), fresh(p)]
        assert values[0] != values[1]
        lemma = verify_lemma1(state, p)
        assert lemma.rhs == correlations._conditional_entropy(
            BipartiteState(state.rho_sa, 2, 3), p)


class TestGlobalOptimalWork:
    def test_product_state_equals_system_only(self):
        rng = np.random.default_rng(92)
        state, rho_s, _ = product_state(rng)
        h = random_hamiltonian(2, rng)
        joint = global_optimal_work(state, h, COMPUTATIONAL, BETA1)
        system = optimal_projection_work(rho_s, h, COMPUTATIONAL, BETA1)
        assert joint.work == pytest.approx(system.work, abs=1e-10)

    def test_purified_worked_qubit(self, canonical_qubit):
        rho, h, t = canonical_qubit
        state = BipartiteState(purify(rho), 2, 2)
        p = energy_projectors(h)
        joint = global_optimal_work(state, h, p, t)
        h2 = lambda x: -x * math.log(x) - (1 - x) * math.log(1 - x)
        # dU = 0 here, so the global work is the projected state's entropy
        expected = h2(0.65)
        assert expected == pytest.approx(0.6474466390346325, abs=1e-15)
        assert joint.work == pytest.approx(expected, abs=1e-9)
        system = optimal_projection_work(rho, h, p, t)
        assert joint.work == pytest.approx(
            system.work + von_neumann_entropy(rho), abs=1e-9)

    def test_work_decomposition(self):
        rng = np.random.default_rng(93)
        for _ in range(50):
            state = random_bipartite_state(2, 2, rng)
            p = random_projector_set(2, rng)
            h = random_hamiltonian(2, rng)
            t = Temperature(beta=float(rng.uniform(0.3, 3.0)))
            joint = global_optimal_work(state, h, p, t)
            system = optimal_projection_work(state.marginal_s, h, p, t)
            delta = delta_correlation(state, p)
            assert joint.work == pytest.approx(
                system.work + delta / t.beta, abs=1e-9)

    def test_purification_is_optimal_for_fixed_marginal(self):
        rng = np.random.default_rng(98)
        rho_s = random_density_matrix(2, rng)
        p = random_projector_set(2, rng)
        h = random_hamiltonian(2, rng)
        best = global_optimal_work(
            BipartiteState(purify(rho_s), 2, 2), h, p, BETA1).work
        for _ in range(50):
            # same system marginal, partially decohered ancilla
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(u)
            mix = float(rng.uniform(0, 1))
            pure = purify(rho_s).mat
            rotated = np.kron(np.eye(2), q) @ pure @ np.kron(np.eye(2), q).conj().T
            blend = DensityMatrix(mix * pure + (1 - mix) * rotated)
            state = BipartiteState(blend, 2, 2)
            assert hs_norm(state.marginal_s.mat - rho_s.mat) < 1e-10
            assert global_optimal_work(state, h, p, BETA1).work <= best + 1e-8


class TestLemma1:
    def test_purification_saturates_at_zero(self):
        rho_s = random_density_matrix(2, np.random.default_rng(99))
        state = BipartiteState(purify(rho_s), 2, 2)
        res = verify_lemma1(state, COMPUTATIONAL)
        assert res.holds
        assert res.lhs == pytest.approx(0.0, abs=1e-10)
        assert res.rhs == pytest.approx(0.0, abs=1e-10)

    def test_product_state(self):
        state, rho_s, rho_a = product_state(np.random.default_rng(100))
        res = verify_lemma1(state, COMPUTATIONAL)
        assert res.holds
        assert res.lhs == pytest.approx(
            von_neumann_entropy(rho_s) + von_neumann_entropy(rho_a), abs=1e-10)
        assert res.rhs == pytest.approx(von_neumann_entropy(rho_a), abs=1e-10)

    def test_random_instances(self):
        rng = np.random.default_rng(101)
        for i in range(100):
            ds, da = (2, 2) if i % 2 == 0 else (2, 3)
            state = random_bipartite_state(ds, da, rng)
            p = random_projector_set(ds, rng)
            assert verify_lemma1(state, p).holds

    def test_rhs_matches_branch_loop(self):
        """rhs against a loop over raw branches Tr_S[(P_k x 1) rho (P_k x 1)]."""
        rng = np.random.default_rng(102)
        for ds, da in ((2, 3), (3, 2), (4, 4)):
            state = random_bipartite_state(ds, da, rng)
            p = random_projector_set(ds, rng)
            expected = 0.0
            for pk in p.projectors:
                lifted = np.kron(pk, np.eye(da))
                branch = DensityMatrix(lifted @ state.rho_sa.mat @ lifted
                                       / np.trace(lifted @ state.rho_sa.mat).real)
                eta_a = branch.mat.reshape(ds, da, ds, da).trace(axis1=0, axis2=2)
                w = np.linalg.eigvalsh(eta_a)
                w = w[w > 1e-15]
                expected -= np.trace(lifted @ state.rho_sa.mat).real * (w * np.log(w)).sum()
            assert verify_lemma1(state, p).rhs == pytest.approx(expected, abs=1e-12)
