import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coherework.fluctuation as fluctuation
from coherework.errors import (
    DimMismatchError,
    NotUnitaryError,
    StateValidationError,
)
from coherework.fluctuation import (
    TransitionTable,
    _cell_counts,
    average_unitary_work,
    jarzynski_average,
    projection_heat,
    sample_trajectories,
    transition_table,
)
from coherework.linalg import DEFAULT_TOL, is_unitary, log_partition, thermal
from coherework.projection import energy_projectors
from coherework.sampling import (
    random_density_matrix,
    random_hamiltonian,
    random_hermitian,
    random_unitary,
)
from coherework.states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    average_energy,
    bloch_qubit,
    gibbs_state,
)

H_QUBIT = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
H_QUBIT_WIDE = Hamiltonian(np.diag([-2.0, 2.0]).astype(complex))
BETA1 = Temperature(beta=1.0)


def oracle_table(h0, htau, v, beta):
    """Direct sandwich-formula evaluation, independent of the library path."""
    w0 = h0.eigenvalues
    z0 = np.exp(-beta * w0).sum()
    rho0 = (h0.eigenvectors * (np.exp(-beta * w0) / z0)
            ) @ h0.eigenvectors.conj().T
    levels0 = energy_projectors(h0).projectors
    levels_tau = energy_projectors(htau).projectors
    out = np.empty((len(levels_tau), len(levels0)))
    for n, p0 in enumerate(levels0):
        for m, pt in enumerate(levels_tau):
            op = pt @ v @ p0 @ rho0 @ p0 @ v.conj().T @ pt
            out[m, n] = np.trace(op).real
    return out


class TestTransitionTable:
    def test_identity_evolution_is_diagonal_thermal(self):
        table = transition_table(H_QUBIT, H_QUBIT, np.eye(2, dtype=complex), BETA1)
        z = math.e + 1 / math.e
        np.testing.assert_allclose(
            table.probs, np.diag([math.e / z, 1 / (math.e * z)]), atol=1e-12)

    def test_qubit_rotation_entry(self):
        rng = np.random.default_rng(61)
        v = random_unitary(2, rng)
        table = transition_table(H_QUBIT, H_QUBIT, v, BETA1)
        p_thermal = math.e / (math.e + 1 / math.e)
        e0 = H_QUBIT.eigenvectors[:, 0]
        overlap = abs(np.vdot(e0, v @ e0)) ** 2
        assert table.probs[0, 0] == pytest.approx(p_thermal * overlap, abs=1e-12)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(62)
        h0 = random_hamiltonian(5, rng)
        htau = random_hamiltonian(5, rng)
        v = random_unitary(5, rng)
        t = Temperature(beta=0.8)
        table = transition_table(h0, htau, v, t)
        np.testing.assert_allclose(table.probs, oracle_table(h0, htau, v, 0.8),
                                   atol=1e-12)

    def test_matches_dense_formula_with_degenerate_levels(self):
        rng = np.random.default_rng(64)
        u = random_unitary(6, rng)
        h0 = Hamiltonian((u * np.array([-1.0, 0.5, 0.5, 0.5, 1.0, 2.0])) @ u.conj().T)
        htau = Hamiltonian(np.diag([0.0, 0.0, 1.0, 1.5, 1.5, 3.0]).astype(complex))
        v = random_unitary(6, rng)
        table = transition_table(h0, htau, v, Temperature(beta=0.8))
        assert table.probs.shape == (4, 4)
        np.testing.assert_allclose(table.probs, oracle_table(h0, htau, v, 0.8),
                                   atol=1e-12)

    def test_row_marginals_are_final_populations(self):
        rng = np.random.default_rng(63)
        h0 = random_hamiltonian(4, rng)
        htau = random_hamiltonian(4, rng)
        v = random_unitary(4, rng)
        t = Temperature(beta=1.1)
        table = transition_table(h0, htau, v, t)
        rho_tau = v @ gibbs_state(h0, t).mat @ v.conj().T
        expected = [np.trace(rho_tau @ p).real for p in energy_projectors(htau).projectors]
        np.testing.assert_allclose(table.probs.sum(axis=1), expected, atol=1e-10)

    def test_degenerate_levels_aggregate(self):
        h0 = Hamiltonian(np.diag([0.0, 0.0, 2.0]).astype(complex))
        v = random_unitary(3, np.random.default_rng(64))
        table = transition_table(h0, h0, v, BETA1)
        assert table.probs.shape == (2, 2)
        np.testing.assert_array_equal(table.g0, [2.0, 1.0])
        z = 2.0 + math.exp(-2.0)
        np.testing.assert_allclose(table.probs.sum(axis=0),
                                   [2.0 / z, math.exp(-2.0) / z], atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            transition_table(H_QUBIT, H_QUBIT, np.ones((2, 2)), BETA1)

    def test_rejects_dim_mismatch(self):
        h3 = Hamiltonian(np.diag([0.0, 1.0, 2.0]).astype(complex))
        with pytest.raises(DimMismatchError):
            transition_table(H_QUBIT, h3, np.eye(2, dtype=complex), BETA1)

    @pytest.mark.xfail(strict=True, raises=StateValidationError,
                       reason="log_partition rounds m + log S at the magnitude beta max|E|: "
                              "about 2e-11 at an offset of 1e5, beyond the 1e-12 log/probs "
                              "agreement; the fix moves jarzynski_lhs bits (schema v2)")
    def test_energy_offset_keeps_log_probs_in_agreement(self):
        s = 1.0 / math.sqrt(2.0)
        hadamard = np.array([[s, s], [s, -s]], dtype=complex)
        h = Hamiltonian(np.diag([1e5, 1e5 + 1.0]).astype(complex))
        table = transition_table(h, h, hadamard, BETA1)
        assert jarzynski_average(table) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name, value", [
        ("h0", lambda: H_QUBIT.mat), ("htau", lambda: None), ("temperature", lambda: 1.0),
    ])
    def test_inputs_of_the_wrong_type_are_rejected(self, name, value):
        inputs = {"h0": H_QUBIT, "htau": H_QUBIT, "v": np.eye(2), "temperature": BETA1}
        inputs[name] = value()
        with pytest.raises(StateValidationError, match=f"^TransitionTable: {name} must be a "):
            TransitionTable(**inputs)

    def test_init_fields_are_the_inputs_of_transition_table(self):
        assert list(inspect.signature(TransitionTable).parameters) == [
            "h0", "htau", "v", "temperature"]
        assert [f.name for f in dataclasses.fields(TransitionTable) if f.init] == [
            "h0", "htau", "temperature"]

    @pytest.mark.parametrize("name", ["probs", "log_probs", "e0", "etau", "beta", "g0", "mass"])
    def test_derived_fields_are_not_init_fields(self, name):
        v = np.eye(2, dtype=complex)
        table = TransitionTable(H_QUBIT, H_QUBIT_WIDE, v, BETA1)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(table, v=v, **{name: getattr(table, name)})
        if name != "beta":
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 0.0

    def test_v_is_not_kept(self):
        v = random_unitary(3, np.random.default_rng(66))
        h = Hamiltonian(np.diag([0.0, 1.0, 2.0]))
        table = TransitionTable(h, h, v, BETA1)
        assert not hasattr(table, "v") and v.flags.writeable
        assert not any(np.shares_memory(v, getattr(table, name))
                       for name in ("probs", "log_probs", "e0", "etau", "g0", "mass"))

    def test_hadamard_with_a_scaled_column_passes_every_check(self):
        # the sum is off by 1.2e-10 > 1e-10, within the sqrt(d) 1e-10 defect
        # is_unitary accepts; the table no longer checks the unit sum again
        v = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
                     dtype=complex) / 2.0
        v[:, 0] *= 1.0 + 6e-11
        h = Hamiltonian(np.diag([0.0, 1.0, 2.0, 3.0]))
        table = TransitionTable(h, h, v, Temperature(beta=30.0))
        assert 1e-10 < table.probs.sum() - 1.0 <= DEFAULT_TOL * 2.0


def reference_table(h0, htau, v, t):
    """The fields transition_table derived, with its arithmetic in its order,
    before the table derived them itself."""
    beta = t.beta
    e0 = h0.energies
    g0 = h0.degeneracies.astype(float)
    weights = thermal(e0, beta, g0) / g0
    log_weights = -beta * e0 - log_partition(e0, beta, g0)
    amp = htau.eigenvectors.conj().T @ np.asarray(v, dtype=complex) @ h0.eigenvectors
    mass = np.add.reduceat(np.abs(amp) ** 2, [c[0] for c in htau.clusters], axis=0)
    mass = np.add.reduceat(mass, [c[0] for c in h0.clusters], axis=1)
    with np.errstate(divide="ignore"):
        log_probs = np.log(mass) + log_weights
    return {"probs": mass * weights, "log_probs": log_probs, "e0": e0,
            "etau": htau.energies, "beta": beta, "g0": g0, "mass": mass}


def _degenerate_hamiltonian(d, rng, scale):
    """A d-level Hamiltonian in a random basis whose levels repeat: d draws
    from about d/2 distinct values, scaled by ``scale``."""
    values = scale * rng.normal(size=max(1, d // 2))
    u = random_unitary(d, rng)
    return Hamiltonian((u * rng.choice(values, size=d)) @ u.conj().T)


DIMS = st.one_of(st.sampled_from([1, 2, 64]), st.integers(1, 64))


@settings(max_examples=40, deadline=None)
@given(d=DIMS, seed=st.integers(0, 10_000), log_s=st.floats(-3.0, 3.0))
def test_derived_fields_bit_identity_with_the_reference(d, seed, log_s):
    rng = np.random.default_rng(seed)
    s = 10.0 ** log_s
    h0 = _degenerate_hamiltonian(d, rng, s)
    htau = _degenerate_hamiltonian(d, rng, s)
    v = random_unitary(d, rng)
    t = Temperature(beta=float(rng.uniform(0.2, 5.0)) / s)
    table = TransitionTable(h0, htau, v, t)
    for name, want in reference_table(h0, htau, v, t).items():
        got = getattr(table, name)
        if name == "beta":
            assert got == want
        else:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name


@settings(max_examples=40, deadline=None)
@given(d=DIMS, seed=st.integers(0, 10_000), frac=st.floats(0.5, 0.999),
       rank_one=st.booleans(), log_beta=st.floats(-2.0, 2.0))
def test_sum_and_marginal_gaps_stay_within_the_unitarity_defect(d, seed, frac, rank_one,
                                                                 log_beta):
    # |sum p - 1| and every |marginal - thermal weight| are at most
    # ||V^dag V - 1||_2 <= DEFAULT_TOL sqrt(d) for a V that passes is_unitary
    rng = np.random.default_rng(seed)
    h0 = _degenerate_hamiltonian(d, rng, 1.0)
    if rank_one:  # a scaled ground-state column, the largest sum gap of its norm
        k = np.outer(h0.eigenvectors[:, 0], h0.eigenvectors[:, 0].conj())
    else:
        k = random_hermitian(d, rng)
        k /= np.linalg.norm(k)
    # V^dag V - 1 = 2 e K + e^2 K^2 for V = U (1 + e K) and a unit-norm K
    v = random_unitary(d, rng) @ (np.eye(d) + frac * DEFAULT_TOL * math.sqrt(d) / 2.0 * k)
    assert is_unitary(v)
    table = TransitionTable(h0, _degenerate_hamiltonian(d, rng, 1.0), v,
                            Temperature(beta=10.0 ** log_beta))
    bound = DEFAULT_TOL * math.sqrt(d) + 64 * d * np.finfo(float).eps
    assert abs(table.probs.sum() - 1.0) <= bound
    marginal_gap = table.probs.sum(axis=0) - thermal(table.e0, table.beta, table.g0)
    assert np.abs(marginal_gap).max() <= bound


class TestJarzynskiAverage:
    def test_unchanged_hamiltonian_gives_one(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            v = random_unitary(2, rng)
            table = transition_table(H_QUBIT, H_QUBIT, v, BETA1)
            assert jarzynski_average(table) == pytest.approx(1.0, abs=1e-14)

    def test_qubit_partition_ratio(self):
        rng = np.random.default_rng(66)
        v = random_unitary(2, rng)
        table = transition_table(H_QUBIT, H_QUBIT_WIDE, v, BETA1)
        expected = math.cosh(2.0) / math.cosh(1.0)
        assert expected == pytest.approx(2.4381069959666024, abs=1e-15)
        assert jarzynski_average(table) == pytest.approx(expected, abs=1e-12)

    def test_jump_with_underflowing_probability_counts(self):
        # p = e^-1000 underflows and e^(beta W) = e^1000 overflows; the log
        # domain keeps their product, which is the whole average
        h = Hamiltonian(np.diag([0.0, 1000.0]).astype(complex))
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        table = transition_table(h, h, swap, BETA1)
        assert table.probs[0, 1] == 0.0
        assert table.log_probs[0, 1] == pytest.approx(-1000.0, rel=1e-15)
        assert table.log_probs[0, 0] == -math.inf
        assert jarzynski_average(table) == pytest.approx(1.0, abs=1e-12)

    def test_jump_from_an_overflowing_level_counts(self):
        # beta E0 = 1e312 overflows, so ln p = -inf of the jumps from the upper
        # level meets beta dE = -inf on the jump down; that jump has mass 1/2
        # and its term mass e^(-beta Etau_0) / Z0 = 1/2 is half the average
        h = Hamiltonian(np.diag([0.0, 1e12]).astype(complex))
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        table = transition_table(h, h, hadamard, Temperature(beta=1e300))
        assert table.log_probs[0, 1] == -math.inf and table.mass[0, 1] > 0.0
        assert jarzynski_average(table) == pytest.approx(1.0, abs=1e-15)

    def test_impossible_jump_adds_zero_where_beta_de_overflows(self):
        h = Hamiltonian(np.diag([0.0, 1e12]).astype(complex))
        table = transition_table(h, h, np.eye(2, dtype=complex), Temperature(beta=1e300))
        assert table.mass[0, 1] == 0.0
        assert jarzynski_average(table) == 1.0

    def test_log_probs_must_match_probs(self, monkeypatch):
        # a log partition function off by 0.1 stands in for its rounding at a
        # large energy offset, the one thing the agreement check can catch
        real = fluctuation.log_partition
        monkeypatch.setattr(fluctuation, "log_partition", lambda *a: real(*a) + 0.1)
        with pytest.raises(StateValidationError,
                           match="^TransitionTable: log_probs disagree with probs$"):
            transition_table(H_QUBIT, H_QUBIT, np.eye(2, dtype=complex), BETA1)

    def test_holds_for_every_unitary(self):
        rng = np.random.default_rng(67)
        h0 = random_hamiltonian(4, rng)
        htau = random_hamiltonian(4, rng)
        beta = 0.9
        z0 = np.exp(-beta * h0.eigenvalues).sum()
        ztau = np.exp(-beta * htau.eigenvalues).sum()
        for _ in range(50):
            v = random_unitary(4, rng)
            table = transition_table(h0, htau, v, Temperature(beta=beta))
            assert jarzynski_average(table) == pytest.approx(
                ztau / z0, abs=1e-12)


class TestAverageUnitaryWork:
    def test_identity_gives_zero(self):
        table = transition_table(H_QUBIT, H_QUBIT, np.eye(2, dtype=complex), BETA1)
        assert average_unitary_work(table) == pytest.approx(0.0, abs=1e-14)

    def test_matches_state_side(self):
        rng = np.random.default_rng(68)
        h0 = random_hamiltonian(3, rng)
        htau = random_hamiltonian(3, rng)
        v = random_unitary(3, rng)
        t = Temperature(beta=1.4)
        table = transition_table(h0, htau, v, t)
        rho0 = gibbs_state(h0, t)
        rho_tau = DensityMatrix(v @ rho0.mat @ v.conj().T)
        expected = average_energy(rho0, h0) - average_energy(rho_tau, htau)
        assert average_unitary_work(table) == pytest.approx(expected, abs=1e-12)

    def test_exciting_the_system_costs_work(self):
        # swap unitary at low temperature pumps the qubit up
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        table = transition_table(H_QUBIT, H_QUBIT, swap, Temperature(beta=10.0))
        assert average_unitary_work(table) < -1.9


class TestProjectionHeat:
    def test_diagonal_state_has_none(self):
        heat = projection_heat(gibbs_state(H_QUBIT, BETA1), H_QUBIT, BETA1)
        assert abs(heat) < 1e-12

    def test_pure_unbiased_state(self):
        rho = bloch_qubit(1.0, math.pi / 2)
        t = Temperature(beta=2.0)
        heat = projection_heat(rho, H_QUBIT, t)
        assert heat == pytest.approx(math.log(2) / 2.0, abs=1e-12)

    def test_worked_qubit(self, canonical_qubit):
        rho, h, t = canonical_qubit
        heat = projection_heat(rho, h, t)
        expected = (-(0.65 * math.log(0.65) + 0.35 * math.log(0.35))
                    + 0.8 * math.log(0.8) + 0.2 * math.log(0.2))
        assert heat == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(69)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            assert projection_heat(rho, h, BETA1) >= -1e-10


class TestSampleTrajectories:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(70)
        table = transition_table(H_QUBIT, H_QUBIT_WIDE, random_unitary(2, rng),
                                 BETA1)
        a = sample_trajectories(table, 20_000, seed=5)
        b = sample_trajectories(table, 20_000, seed=5)
        c = sample_trajectories(table, 20_000, seed=6)
        assert a.exp_beta_w_estimate == b.exp_beta_w_estimate
        assert a.work_estimate == b.work_estimate
        assert np.array_equal(a.delta_e_counts, b.delta_e_counts)
        assert a.exp_beta_w_estimate != c.exp_beta_w_estimate

    def test_single_outcome_table_has_zero_variance(self):
        h1 = Hamiltonian(np.array([[0.5]], dtype=complex))
        table = transition_table(h1, h1, np.eye(1, dtype=complex), BETA1)
        stats = sample_trajectories(table, 1000, seed=1)
        assert stats.exp_beta_w_estimate == pytest.approx(1.0, abs=1e-15)
        assert stats.exp_beta_w_std_error == 0.0

    def test_estimates_within_standard_errors(self):
        rng = np.random.default_rng(71)
        h0 = random_hamiltonian(3, rng)
        htau = random_hamiltonian(3, rng)
        table = transition_table(h0, htau, random_unitary(3, rng),
                                 Temperature(beta=0.7))
        stats = sample_trajectories(table, 10**6, seed=77)
        exact = jarzynski_average(table)
        assert abs(stats.exp_beta_w_estimate - exact) < 5 * stats.exp_beta_w_std_error
        exact_w = average_unitary_work(table)
        assert abs(stats.work_estimate - exact_w) < 5 * stats.work_std_error

    def test_histogram_counts_sum_to_samples(self):
        rng = np.random.default_rng(72)
        table = transition_table(H_QUBIT, H_QUBIT_WIDE, random_unitary(2, rng),
                                 BETA1)
        stats = sample_trajectories(table, 12_345, seed=3)
        assert stats.delta_e_counts.sum() == 12_345
        assert np.all(np.diff(stats.delta_e_values) > 0)

    def test_rejects_bad_sample_count(self):
        table = transition_table(H_QUBIT, H_QUBIT, np.eye(2, dtype=complex), BETA1)
        with pytest.raises(ValueError):
            sample_trajectories(table, 0, seed=1)

    def test_unbiased_across_seeds(self):
        rng = np.random.default_rng(73)
        table = transition_table(random_hamiltonian(3, rng),
                                 random_hamiltonian(3, rng),
                                 random_unitary(3, rng),
                                 Temperature(beta=0.8))
        exact = jarzynski_average(table)
        n = 20_000
        runs = [sample_trajectories(table, n, seed=s) for s in range(50)]
        mean_error = np.mean([r.exp_beta_w_estimate for r in runs]) - exact
        pooled_se = np.mean([r.exp_beta_w_std_error for r in runs]) / math.sqrt(50)
        assert abs(mean_error) < 3 * pooled_se


def per_sample_oracle(table, n, seed):
    """Per-sample inverse-CDF draws from the same seeded stream, reduced the
    plain way: one array entry per draw."""
    flat = table.probs.ravel()
    u = np.random.default_rng(seed).random(n)
    idx = np.minimum(np.searchsorted(np.cumsum(flat), u, "right"), flat.size - 1)
    de_cells = table.delta_e.ravel()
    values, inverse = np.unique(de_cells, return_inverse=True)
    merged = np.zeros(values.size, dtype=np.int64)
    np.add.at(merged, inverse, np.bincount(idx, minlength=flat.size))
    w = -de_cells[idx]
    x = np.exp(table.beta * w)
    se = lambda a: float(a.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return {"values": values, "counts": merged,
            "exp_beta_w": (float(x.mean()), se(x)), "work": (float(w.mean()), se(w))}


def _oracle_tables():
    rng = np.random.default_rng(74)
    h3 = Hamiltonian(np.diag([-1.0, 0.0, 1.0]).astype(complex))
    shift = np.roll(np.eye(3), 1, axis=0).astype(complex)  # 6 of 9 cells are 0
    u = random_unitary(8, rng)
    h8 = Hamiltonian((u * np.array([-2.0, -1.0, 0.5, 0.5, 0.5, 1.0, 1.5, 3.0]))
                     @ u.conj().T)
    h1 = Hamiltonian(np.array([[0.5]], dtype=complex))
    return {
        "zero_cells": transition_table(h3, h3, shift, BETA1),
        "degenerate_d8": transition_table(h8, random_hamiltonian(8, rng),
                                          random_unitary(8, rng),
                                          Temperature(beta=0.4)),
        "one_by_one": transition_table(h1, h1, np.eye(1, dtype=complex), BETA1),
        "qubit": transition_table(H_QUBIT, H_QUBIT_WIDE, random_unitary(2, rng),
                                  BETA1),
    }


ORACLE_TABLES = _oracle_tables()


class TestSampleTrajectoriesOracle:
    """The per-cell reduction must reproduce the per-sample draws exactly."""

    @pytest.mark.parametrize("n", [1, 2, 999, 100_000])
    @pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
    def test_counts_and_estimates_match_per_sample_draws(self, name, n):
        table = ORACLE_TABLES[name]
        stats = sample_trajectories(table, n, seed=n + 17)
        oracle = per_sample_oracle(table, n, seed=n + 17)
        assert stats.delta_e_values.dtype == oracle["values"].dtype
        assert stats.delta_e_values.tobytes() == oracle["values"].tobytes()
        assert stats.delta_e_counts.dtype == oracle["counts"].dtype
        assert stats.delta_e_counts.tobytes() == oracle["counts"].tobytes()
        for got, (mean, se) in (
            ((stats.exp_beta_w_estimate, stats.exp_beta_w_std_error),
             oracle["exp_beta_w"]),
            ((stats.work_estimate, stats.work_std_error), oracle["work"]),
        ):
            # the standard error's rounding scales with the mean it is taken about
            assert got[0] == pytest.approx(mean, rel=1e-14, abs=1e-300)
            assert got[1] == pytest.approx(se, rel=1e-14, abs=1e-14 * abs(mean))

    @pytest.mark.parametrize("n", [1, 65535, 65536, 65537, 10**6])
    def test_chunked_counts_match_whole_array(self, n):
        # the whole-array reduction: every uniform drawn and sorted at once
        rng = np.random.default_rng(8)
        wide = rng.random(4096) * (rng.random(4096) < 0.7)
        tables = [t.probs.ravel() for t in ORACLE_TABLES.values()] + [wide / wide.sum()]
        for probs in tables:
            cdf = np.cumsum(probs)
            for seed in (0, 5, 123):
                u = np.random.default_rng(seed).random(n)
                u.sort()
                whole = np.diff(np.searchsorted(u, cdf[:-1], side="left"),
                                prepend=0, append=n)
                got = _cell_counts(probs, n, seed)
                assert got.dtype == whole.dtype
                assert np.array_equal(got, whole), (probs.size, seed)

    def test_unreachable_cell_with_overflowing_weight(self):
        # e^(beta W) overflows on a cell the table gives probability 0; no
        # draw lands there, so it must not enter the estimates
        h = Hamiltonian(np.diag([0.0, 1000.0]).astype(complex))
        table = transition_table(h, h, np.array([[0, 1], [1, 0]], dtype=complex),
                                 BETA1)
        assert table.probs[0, 1] == 0.0
        stats = sample_trajectories(table, 1000, seed=2)
        assert math.isfinite(stats.exp_beta_w_estimate)
        assert math.isfinite(stats.exp_beta_w_std_error)
        assert stats.work_estimate == pytest.approx(-1000.0, rel=1e-15)
        assert stats.delta_e_counts.sum() == 1000
