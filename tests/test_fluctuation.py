import math

import numpy as np
import pytest

from coherework.errors import (
    DimMismatchError,
    NotUnitaryError,
    StateValidationError,
)
from coherework.fluctuation import (
    TransitionTable,
    average_unitary_work,
    jarzynski_average,
    projection_heat,
    sample_trajectories,
    transition_table,
)
from coherework.sampling import (
    random_density_matrix,
    random_hamiltonian,
    random_unitary,
    rng_from_seed,
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
    w0 = h0.spectral.eigenvalues
    z0 = np.exp(-beta * w0).sum()
    rho0 = (h0.spectral.eigenvectors * (np.exp(-beta * w0) / z0)
            ) @ h0.spectral.eigenvectors.conj().T
    out = np.empty((len(htau.levels), len(h0.levels)))
    for n, (_, p0) in enumerate(h0.levels):
        for m, (_, pt) in enumerate(htau.levels):
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
        rng = rng_from_seed(61)
        v = random_unitary(2, rng)
        table = transition_table(H_QUBIT, H_QUBIT, v, BETA1)
        p_thermal = math.e / (math.e + 1 / math.e)
        e0 = H_QUBIT.spectral.eigenvectors[:, 0]
        overlap = abs(np.vdot(e0, v @ e0)) ** 2
        assert table.probs[0, 0] == pytest.approx(p_thermal * overlap, abs=1e-12)

    def test_matches_dense_formula(self):
        rng = rng_from_seed(62)
        h0 = random_hamiltonian(5, rng)
        htau = random_hamiltonian(5, rng)
        v = random_unitary(5, rng)
        t = Temperature(beta=0.8)
        table = transition_table(h0, htau, v, t)
        np.testing.assert_allclose(table.probs, oracle_table(h0, htau, v, 0.8),
                                   atol=1e-12)

    def test_matches_dense_formula_with_degenerate_levels(self):
        rng = rng_from_seed(64)
        u = random_unitary(6, rng)
        h0 = Hamiltonian((u * np.array([-1.0, 0.5, 0.5, 0.5, 1.0, 2.0])) @ u.conj().T)
        htau = Hamiltonian(np.diag([0.0, 0.0, 1.0, 1.5, 1.5, 3.0]).astype(complex))
        v = random_unitary(6, rng)
        table = transition_table(h0, htau, v, Temperature(beta=0.8))
        assert table.probs.shape == (4, 4)
        np.testing.assert_allclose(table.probs, oracle_table(h0, htau, v, 0.8),
                                   atol=1e-12)

    def test_row_marginals_are_final_populations(self):
        rng = rng_from_seed(63)
        h0 = random_hamiltonian(4, rng)
        htau = random_hamiltonian(4, rng)
        v = random_unitary(4, rng)
        t = Temperature(beta=1.1)
        table = transition_table(h0, htau, v, t)
        rho_tau = v @ gibbs_state(h0, t).mat @ v.conj().T
        expected = [np.trace(rho_tau @ p).real for _, p in htau.levels]
        np.testing.assert_allclose(table.probs.sum(axis=1), expected, atol=1e-10)

    def test_degenerate_levels_aggregate(self):
        h0 = Hamiltonian(np.diag([0.0, 0.0, 2.0]).astype(complex))
        v = random_unitary(3, rng_from_seed(64))
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

    def test_validation_catches_bad_marginals(self):
        with pytest.raises(StateValidationError, match="thermal"):
            TransitionTable(probs=np.array([[0.5, 0.0], [0.0, 0.5]]),
                            e0=np.array([-1.0, 1.0]), etau=np.array([-1.0, 1.0]),
                            beta=1.0, g0=np.array([1.0, 1.0]))


class TestJarzynskiAverage:
    def test_unchanged_hamiltonian_gives_one(self):
        rng = rng_from_seed(65)
        for _ in range(10):
            v = random_unitary(2, rng)
            table = transition_table(H_QUBIT, H_QUBIT, v, BETA1)
            assert jarzynski_average(table) == pytest.approx(1.0, abs=1e-14)

    def test_qubit_partition_ratio(self):
        rng = rng_from_seed(66)
        v = random_unitary(2, rng)
        table = transition_table(H_QUBIT, H_QUBIT_WIDE, v, BETA1)
        expected = math.cosh(2.0) / math.cosh(1.0)
        assert expected == pytest.approx(2.4381069959666024, abs=1e-15)
        assert jarzynski_average(table) == pytest.approx(expected, abs=1e-12)

    def test_holds_for_every_unitary(self):
        rng = rng_from_seed(67)
        h0 = random_hamiltonian(4, rng)
        htau = random_hamiltonian(4, rng)
        beta = 0.9
        z0 = np.exp(-beta * h0.spectral.eigenvalues).sum()
        ztau = np.exp(-beta * htau.spectral.eigenvalues).sum()
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
        rng = rng_from_seed(68)
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
        heat, extra = projection_heat(gibbs_state(H_QUBIT, BETA1), H_QUBIT, BETA1)
        assert abs(heat) < 1e-12 and extra == heat

    def test_pure_unbiased_state(self):
        rho = bloch_qubit(1.0, math.pi / 2)
        t = Temperature(beta=2.0)
        heat, extra = projection_heat(rho, H_QUBIT, t)
        assert heat == pytest.approx(math.log(2) / 2.0, abs=1e-12)
        assert extra == heat

    def test_worked_qubit(self, canonical_qubit):
        rho, h, t = canonical_qubit
        heat, _ = projection_heat(rho, h, t)
        expected = (-(0.65 * math.log(0.65) + 0.35 * math.log(0.35))
                    + 0.8 * math.log(0.8) + 0.2 * math.log(0.2))
        assert heat == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = rng_from_seed(69)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            assert projection_heat(rho, h, BETA1).heat >= -1e-10


class TestSampleTrajectories:
    def test_deterministic_per_seed(self):
        rng = rng_from_seed(70)
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
        rng = rng_from_seed(71)
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
        rng = rng_from_seed(72)
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
        rng = rng_from_seed(73)
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
    rng = rng_from_seed(74)
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
