import dataclasses
import gc
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coherework import protocol
from coherework.errors import (
    ClampRequiredError,
    NonFiniteError,
    ParameterRangeError,
    StateValidationError,
)
from coherework.linalg import hs_norm, shannon, thermal
from coherework.projection import WorkReport, energy_projectors, optimal_projection_work, project
from coherework.protocol import (
    DEFAULT_PURITY_CLAMP,
    PLAN_TOL,
    ProtocolPlan,
    WorkLedger,
    build_plan,
    exact_step_works,
    simulate,
)
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
    bloch_qubit,
    gibbs_state,
)


def binary_entropy(x):
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


W_OPT_CANONICAL = binary_entropy(0.65) - binary_entropy(0.8)


def auxiliary_hamiltonians(plan):
    """H1 and H2 rebuilt from the plan's shared basis and eigenvalues."""
    b = plan.basis
    return (Hamiltonian((b * plan.e1) @ b.conj().T),
            Hamiltonian((b * plan.e2) @ b.conj().T))


class TestBuildPlan:
    def test_step1_gap_reproduces_spin_formula(self, canonical_qubit):
        rho, h, t = canonical_qubit
        plan = build_plan(rho, h, t)
        # E1 = (1/2) ln(a / (1-a)) in the traceless gauge, ground level first
        gap = 0.5 * math.log(0.8 / 0.2)
        assert gap == pytest.approx(0.6931471805599453, abs=1e-15)
        np.testing.assert_allclose(plan.e1, [-gap, gap], atol=1e-12)

    def test_step2_gap_reproduces_spin_formula(self, canonical_qubit):
        rho, h, t = canonical_qubit
        plan = build_plan(rho, h, t)
        gap = 0.5 * math.log(0.65 / 0.35)
        assert gap == pytest.approx(0.3095196042031118, abs=1e-15)
        np.testing.assert_allclose(plan.e2, [-gap, gap], atol=1e-12)

    def test_thermal_input_is_trivial(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        plan = build_plan(gibbs_state(h, t), h, t)
        # identity rotation up to phases, both auxiliary Hamiltonians equal H
        assert hs_norm(np.abs(plan.v) - np.eye(2)) < 1e-8
        h1, h2 = auxiliary_hamiltonians(plan)
        assert hs_norm(h1.mat - h.mat) < 1e-8
        assert hs_norm(h2.mat - h.mat) < 1e-8
        for entry in exact_step_works(plan).entries.values():
            assert abs(entry.work) < 1e-10

    def test_rotated_state_is_thermal_for_h1(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            t = Temperature(beta=float(rng.uniform(0.3, 3.0)))
            plan = build_plan(rho, h, t)
            rho1 = plan.v @ plan.rho0.mat @ plan.v.conj().T
            h1, h2 = auxiliary_hamiltonians(plan)
            assert hs_norm(gibbs_state(h1, t).mat - rho1) < 1e-8
            eta = (plan.basis * plan.target_populations) @ plan.basis.conj().T
            assert hs_norm(gibbs_state(h2, t).mat - eta) < 1e-8

    def test_target_is_block_projection(self):
        rng = np.random.default_rng(32)
        rho = random_density_matrix(3, rng)
        h = Hamiltonian(np.diag([1.0, 1.0, 3.0]).astype(complex))
        plan = build_plan(rho, h, Temperature(beta=1.0))
        eta = project(rho, energy_projectors(h))
        target = (plan.basis * plan.target_populations) @ plan.basis.conj().T
        assert hs_norm(target - eta.mat) < 1e-10

    def test_pure_state_needs_clamp(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        pure = bloch_qubit(1.0, 0.4)
        with pytest.raises(ClampRequiredError):
            build_plan(pure, h, Temperature(beta=1.0), purity_clamp=0.0)
        plan = build_plan(pure, h, Temperature(beta=1.0), purity_clamp=1e-9)
        assert plan.populations.min() > 0.0

    def test_clamp_range_validated(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        with pytest.raises(ValueError):
            build_plan(bloch_qubit(0.8, 0.4), h, Temperature(beta=1.0),
                       purity_clamp=0.01)

    @pytest.mark.parametrize("clamp", ["x", None, [1e-9]])
    def test_non_number_clamp_is_parameter_range_error(self, clamp):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        with pytest.raises(ParameterRangeError, match=r"purity_clamp must lie in \[0, 0.001\], got "):
            build_plan(bloch_qubit(0.8, 0.4), h, Temperature(beta=1.0), purity_clamp=clamp)

    @pytest.mark.parametrize("clamp", [0.0, DEFAULT_PURITY_CLAMP, 1e-3])
    def test_clamped_state_keeps_its_eigen_data(self, monkeypatch, clamp):
        # rho0 is built from rho's eigenvectors and the clamped, renormalised
        # spectrum; with distinct levels build_plan factorises nothing
        rng = np.random.default_rng(3)
        rho = random_density_matrix(6, rng)
        h = Hamiltonian(random_hermitian(6, rng))
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a))
        plan = build_plan(rho, h, Temperature(0.7), clamp)
        assert calls == []
        a = np.clip(rho.spectrum(), clamp, 1.0 - clamp) if clamp else rho.spectrum()
        assert np.array_equal(plan.rho0.spectrum(), a / a.sum())
        assert plan.rho0.eigenvectors is rho.eigenvectors
        w, v = plan.rho0.spectrum(), plan.rho0.eigenvectors
        assert hs_norm((v * w) @ v.conj().T - plan.rho0.mat) <= 1e-13

    def test_clamp_error_budget(self):
        # with spectrum clamped at c the totals move by at most
        # 2 d c ln(1/c) from the unclamped optimum
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        pure = bloch_qubit(1.0, math.pi / 2)
        clamp = 1e-6
        plan = build_plan(pure, h, t, purity_clamp=clamp)
        ideal = math.log(2)  # S(eta) - S(rho) for the pure unbiased qubit
        gap = abs(exact_step_works(plan).totals.work - ideal)
        assert gap <= 2 * 2 * clamp * math.log(1 / clamp)


def assert_same_plan(got, want):
    """Every field of the two plans is equal, array for array."""
    assert got.rho is want.rho and got.temperature is want.temperature
    assert got.h0 is want.h0 and got.purity_clamp == want.purity_clamp
    for name in ("v", "basis", "populations", "target_populations", "e0", "e1", "e2"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.rho0.mat, want.rho0.mat)


class TestPlanRejections:
    """``ProtocolPlan`` rejects inputs of the wrong type and an infinite gap;
    everything else it derives, so it has nothing else to check."""

    def test_in_level_spread_is_accepted(self):
        # one level of six eigenvalues 1.9e-8 apart (spread 2): a basis column
        # on its edge is 4.75e-8 from the level's mean, beyond PLAN_TOL at unit scale
        step = 1.9e-8
        h = Hamiltonian(np.diag([0.0, *(1.0 + step * np.arange(6)), 2.0]).astype(complex))
        assert [len(c) for c in h.clusters] == [1, 6, 1]
        p = np.array([0.3, 0.2, 0.15, 0.1, 0.09, 0.08, 0.05, 0.03])
        plan = build_plan(DensityMatrix(np.diag(p).astype(complex)), h, Temperature(10.0))
        k = plan.basis.conj().T @ h.mat @ plan.basis
        scale = max(hs_norm(h.mat), hs_norm(plan.e1), hs_norm(plan.e2))
        assert np.abs(k.diagonal().real - plan.e0).max() / scale > PLAN_TOL

    @pytest.mark.parametrize("name, value", [
        ("rho", lambda p: p.rho.mat), ("h0", lambda p: p.h0.mat),
        ("temperature", lambda p: p.temperature.beta),
    ])
    def test_fields_of_the_wrong_type_are_rejected(self, canonical_qubit, name, value):
        plan = build_plan(*canonical_qubit)
        with pytest.raises(StateValidationError, match=f"{name} must be a "):
            dataclasses.replace(plan, **{name: value(plan)})

    @pytest.mark.parametrize("name", ["rho0", "v", "basis", "populations",
                                      "target_populations", "e0", "e1", "e2"])
    def test_derived_fields_are_not_init_fields(self, canonical_qubit, name):
        plan = build_plan(*canonical_qubit)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(plan, **{name: getattr(plan, name)})
        array = plan.rho0.mat if name == "rho0" else getattr(plan, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0

    def test_init_fields_are_the_inputs_of_build_plan(self, canonical_qubit):
        plan = build_plan(*canonical_qubit)
        assert [f.name for f in dataclasses.fields(plan) if f.init] == [
            "rho", "h0", "temperature", "purity_clamp"]
        assert_same_plan(ProtocolPlan(*canonical_qubit), plan)

    @pytest.mark.parametrize("s", [1e-6, 3.0, 1e6])
    def test_rescaled_h0_moves_the_ledger(self, canonical_qubit, s):
        # e0 follows h0, so the plan with s H swapped in is the plan of s H
        rho, h, t = canonical_qubit
        hs = Hamiltonian(s * h.mat)
        total = exact_step_works(dataclasses.replace(build_plan(rho, h, t), h0=hs)).totals
        want = exact_step_works(build_plan(rho, hs, t)).totals
        assert abs(total.work - want.work) <= 1e-12 * max(1.0, s)

    @pytest.mark.parametrize("beta, message", [
        (1e-310, "has NaN or infinite entries"), (5e-324, "has NaN or infinite entries"),
        # a finite gap of about 1e300, beyond the entry bound
        (1e-300, r"has an entry beyond 1e\+150"),
    ], ids=["1e-310", "5e-324", "1e-300"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_vanishing_beta_is_non_finite(self, canonical_qubit, beta, message):
        rho, h, _ = canonical_qubit
        with pytest.raises(NonFiniteError, match=r"matrix of shape \(2, 2\) " + message):
            build_plan(rho, h, Temperature(beta))


class TestReplacedPlan:
    """A plan with an input replaced is the plan of the new inputs."""

    @pytest.mark.parametrize("h0", [lambda h: -h.mat, lambda h: np.array([[0.0, 1.0], [1.0, 0.0]])],
                             ids=["negated", "non_commuting"])
    def test_replaced_h0_is_the_plan_of_the_new_h0(self, canonical_qubit, h0):
        # -H's ascending levels run against the old basis columns; a stale
        # basis gave a ledger total of 0.747, not 0.147
        rho, h, t = canonical_qubit
        h2 = Hamiltonian(h0(h))
        assert_same_plan(dataclasses.replace(build_plan(rho, h, t), h0=h2), build_plan(rho, h2, t))

    def test_replaced_temperature_and_clamp(self, canonical_qubit):
        rho, h, t = canonical_qubit
        t2 = Temperature(2.5)
        plan = dataclasses.replace(build_plan(rho, h, t), temperature=t2, purity_clamp=1e-3)
        assert_same_plan(plan, build_plan(rho, h, t2, 1e-3))


class TestCommutatorAtEntryBound:
    # an H0 with entries of 1e150: its products H_i H_j would reach 1e300
    H0 = 1e150 * np.array([[1.0, 1.0 + 1.0j], [1.0 - 1.0j, -1.0]])

    def test_commuting_plan_builds_without_overflow(self):
        h = Hamiltonian(self.H0)
        t = Temperature(beta=1e-150)
        rho = random_density_matrix(2, np.random.default_rng(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plan = build_plan(rho, h, t)
            total = exact_step_works(plan).totals.work
            w_opt = optimal_projection_work(rho, h, energy_projectors(h), t).work
        assert math.isfinite(total)
        assert total == pytest.approx(w_opt, rel=1e-9)

    def test_swapped_h0_is_the_plan_of_the_swap(self):
        rho = random_density_matrix(2, np.random.default_rng(3))
        t = Temperature(beta=1e-150)
        swap = Hamiltonian(1e150 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plan = dataclasses.replace(build_plan(rho, Hamiltonian(self.H0), t), h0=swap)
            assert_same_plan(plan, build_plan(rho, swap, t))
            assert exact_step_works(plan) == exact_step_works(build_plan(rho, swap, t))


class TestExactStepWorks:
    def test_worked_qubit_total(self, canonical_qubit):
        rho, h, t = canonical_qubit
        totals = exact_step_works(build_plan(rho, h, t)).totals
        assert totals.work == pytest.approx(W_OPT_CANONICAL, abs=1e-10)
        assert totals.energy_change == pytest.approx(0.0, abs=1e-10)

    def test_matches_projection_work_on_random_instances(self):
        rng = np.random.default_rng(33)
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        t = Temperature(beta=2.0)
        totals = exact_step_works(build_plan(rho, h, t)).totals
        rep = optimal_projection_work(rho, h, energy_projectors(h), t)
        assert totals.work == pytest.approx(rep.work, abs=1e-9)

    def test_degenerate_hamiltonian(self):
        rng = np.random.default_rng(34)
        rho = random_density_matrix(4, rng)
        h = Hamiltonian(np.diag([0.5, 0.5, 0.5, 2.0]).astype(complex))
        t = Temperature(beta=1.0)
        totals = exact_step_works(build_plan(rho, h, t)).totals
        rep = optimal_projection_work(rho, h, energy_projectors(h), t)
        assert totals.work == pytest.approx(rep.work, abs=1e-9)

    def test_diagonal_state_zero_total_nonzero_steps(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        rho = DensityMatrix(np.diag([0.2, 0.8]))  # diagonal but not thermal
        ledger = exact_step_works(build_plan(rho, h, Temperature(beta=1.0)))
        assert ledger.totals.work == pytest.approx(0.0, abs=1e-10)
        assert any(abs(e.work) > 1e-3 for e in ledger.entries.values())

    def test_inverted_target_population(self):
        # p < 1/2: the final thermal Hamiltonian has its gap sign flipped
        # (excited slot below the ground slot) and the math goes through
        rho = bloch_qubit(0.8, 2 * math.pi / 3)
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        p_ground = 0.5 * (1 + 0.6 * math.cos(2 * math.pi / 3))
        assert p_ground == pytest.approx(0.35)
        plan = build_plan(rho, h, t)
        gap = 0.5 * math.log(p_ground / (1 - p_ground))
        assert gap < 0
        np.testing.assert_allclose(plan.e2, [-gap, gap], atol=1e-12)
        totals = exact_step_works(plan).totals
        expected = (binary_entropy(p_ground) - binary_entropy(0.8))
        assert totals.work == pytest.approx(expected, abs=1e-10)

    def test_first_law_per_entry(self, canonical_qubit):
        rho, h, t = canonical_qubit
        for e in exact_step_works(build_plan(rho, h, t)).entries.values():
            assert e.energy_change == pytest.approx(
                e.heat_absorbed - e.work, abs=1e-12)

    def test_isolated_steps_have_zero_heat(self, canonical_qubit):
        rho, h, t = canonical_qubit
        ledger = exact_step_works(build_plan(rho, h, t))
        assert list(ledger.entries) == ["rotate", "isotherm", "quench"]
        assert ledger.entries["rotate"].heat_absorbed == 0.0
        assert ledger.entries["quench"].heat_absorbed == 0.0


class TestSimulate:
    def test_trivial_plan_all_zero(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        ledger = simulate(build_plan(gibbs_state(h, t), h, t), 50)
        for e in ledger.entries.values():
            assert abs(e.work) < 1e-10
            assert abs(e.heat_absorbed) < 1e-10

    def test_worked_qubit_converges(self, canonical_qubit):
        rho, h, t = canonical_qubit
        plan = build_plan(rho, h, t)
        totals = simulate(plan, 10**5).totals
        assert abs(totals.work - W_OPT_CANONICAL) < 1e-4

    def test_first_order_convergence(self, canonical_qubit):
        rho, h, t = canonical_qubit
        plan = build_plan(rho, h, t)
        errors = [abs(simulate(plan, n).totals.work - W_OPT_CANONICAL)
                  for n in (100, 1000)]
        assert errors[1] < errors[0]
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.2)

    def test_heat_only_in_isotherm(self, canonical_qubit):
        rho, h, t = canonical_qubit
        ledger = simulate(build_plan(rho, h, t), 1000)
        assert ledger.entries["rotate"].heat_absorbed == 0.0
        assert ledger.entries["quench"].heat_absorbed == 0.0
        assert abs(ledger.entries["isotherm"].heat_absorbed) > 1e-3

    def test_endpoints_thermal(self, canonical_qubit):
        rho, h, t = canonical_qubit
        plan = build_plan(rho, h, t)
        ledger = simulate(plan, 10)
        # the staircase state is exactly thermal at both ends, so the
        # isotherm's entropy change matches the closed form
        exact = exact_step_works(plan)
        assert ledger.entries["isotherm"].entropy_change == pytest.approx(
            exact.entries["isotherm"].entropy_change, abs=1e-12)

    def test_energy_conservation_of_totals(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            t = Temperature(beta=1.0)
            totals = simulate(build_plan(rho, h, t), 500).totals
            assert abs(totals.energy_change) < 1e-8

    def test_first_law_per_entry_large_step_count(self, canonical_qubit):
        rho, h, t = canonical_qubit
        for e in simulate(build_plan(rho, h, t), 10**5).entries.values():
            assert e.energy_change == pytest.approx(
                e.heat_absorbed - e.work, abs=1e-10)

    def test_steps_validated(self, canonical_qubit):
        rho, h, t = canonical_qubit
        with pytest.raises(ValueError):
            simulate(build_plan(rho, h, t), 0)


def _report(work, heat, d_u, scale=0.0):
    return WorkReport(work=work, entropy_change=0.0, energy_change=d_u,
                      heat_absorbed=heat, scale=scale)


class TestWorkLedger:
    def test_totals_sum_entries(self):
        entries = {"a": WorkReport(work=1.0, entropy_change=0.0,
                                   energy_change=-1.0, heat_absorbed=0.0),
                   "b": WorkReport(work=-0.25, entropy_change=0.4,
                                   energy_change=0.75, heat_absorbed=0.5)}
        ledger = WorkLedger(entries)
        assert ledger.totals.work == pytest.approx(0.75)
        assert ledger.totals.heat_absorbed == pytest.approx(0.5)
        assert ledger.totals.entropy_change == pytest.approx(0.4)

    def test_first_law_enforced(self):
        with pytest.raises(ValueError, match="first law"):
            _report(work=1.0, heat=0.0, d_u=1.0)

    def test_scale_sets_the_tolerance(self):
        # terms that are rounding noise of energies of 1e7 pass at that scale
        with pytest.raises(ValueError, match="first law"):
            _report(work=1.9e-9, heat=0.0, d_u=-1.9e-9 + 1.6e-10)
        _report(work=1.9e-9, heat=0.0, d_u=-1.9e-9 + 1.6e-10, scale=1e7)

    def test_gap_beyond_small_terms_is_caught(self):
        # no absolute floor: a gap 50 times the work fails at any scale
        with pytest.raises(ValueError, match="first law"):
            _report(work=1e-12, heat=0.0, d_u=5e-11, scale=1e-11)

    def test_entries_are_read_only(self, canonical_qubit):
        given = {"a": _report(work=1.0, heat=0.0, d_u=-1.0)}
        ledger = WorkLedger(given)
        given["b"] = given["a"]  # a copy: the caller's mapping does not reach the ledger
        for built in (ledger, simulate(build_plan(*canonical_qubit), 10)):
            with pytest.raises(TypeError):
                built.entries["rotate"] = None
        assert list(ledger.entries) == ["a"]

    def test_ledger_is_unhashable(self, canonical_qubit):
        # a record of floats compared by value; its entries mapping is unhashable too
        with pytest.raises(TypeError, match="unhashable type: 'WorkLedger'"):
            hash(exact_step_works(build_plan(*canonical_qubit)))

    def test_totals_are_checked_at_the_ledger_scale(self):
        # entries that each pass at the scale sum to a gap the totals must also pass
        noise = {k: _report(work=1.9e-9, heat=0.0, d_u=-1.9e-9 + 1.6e-10, scale=1e7)
                 for k in ("rotate", "isotherm", "quench")}
        assert WorkLedger(noise, scale=1e7).totals.work == pytest.approx(5.7e-9)
        with pytest.raises(ValueError, match="first law"):
            WorkLedger(noise).totals


@pytest.mark.parametrize("beta", [1e-8, 1e-12])
def test_high_temperature_ledger_passes_the_first_law(beta):
    # the isotherm work is a difference of terms T S of about 1e8 or 1e12, not max|e| = 1.625
    h = Hamiltonian(np.diag([0.0, 0.25, 1.625]).astype(complex))
    t = Temperature(beta)
    plan = build_plan(gibbs_state(h, t), h, t)
    for ledger in (exact_step_works(plan), simulate(plan, 100)):
        assert ledger.scale > math.log(3) / beta
        assert abs(ledger.totals.work) < 1e-10 * ledger.scale


def _works(rho, hm, beta):
    """Optimal projection work, exact ledger total and simulated total."""
    h = Hamiltonian(hm)
    t = Temperature(beta)
    plan = build_plan(rho, h, t)
    return (optimal_projection_work(rho, h, energy_projectors(h), t).work,
            exact_step_works(plan).totals.work,
            simulate(plan, 100).totals.work)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(-12.0, 9.0), st.booleans())
def test_units_of_energy_and_temperature_rescale_work(seed, log_s, degenerate):
    # (s H, beta / s) is the same physics in other units: W(sH, beta/s) = s W(H, beta)
    rng = np.random.default_rng(seed)
    if degenerate:
        # the two-fold level stays one level although its rounding grows with s
        u = random_unitary(4, rng)
        hm = (u * np.array([0.0, 1.0, 1.0, 2.0])) @ u.conj().T
    else:
        hm = random_hermitian(4, rng)
        assume(np.diff(np.linalg.eigvalsh(hm)).min() > 1e-3)  # levels stay distinct at s=1e-3
    rho = random_density_matrix(4, rng)
    beta = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
    s = 10.0 ** log_s
    assert len(Hamiltonian(s * hm).clusters) == (3 if degenerate else 4)
    for w, w_scaled in zip(_works(rho, hm, beta), _works(rho, s * hm, beta / s)):
        assert abs(w_scaled - s * w) <= 1e-9 * s * max(1.0, abs(w))


@pytest.mark.parametrize("field", ["work", "heat_absorbed", "energy_change"])
def test_first_law_rejects_nan(field):
    values = {"work": 0.5, "heat_absorbed": 1.5, "energy_change": 1.0}
    values[field] = math.nan
    with pytest.raises(NonFiniteError, match=f"cannot check the first law: {field} is nan"):
        WorkReport(entropy_change=0.0, **values)


def reference_isotherm(e1, e2, beta, n):
    """The isotherm kernel simulate ran before it filled leaves: five new
    chunk-sized arrays per chunk, with thermal's operations written out."""
    work = 0.0
    heat = 0.0
    s = np.linspace(0.0, 1.0, n + 1)
    chunk = 65536
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        ee = e1[None, :] + s[start:stop + 1, None] * (e2 - e1)[None, :]
        pp = -beta * ee
        pp -= pp.max(axis=-1, keepdims=True)
        np.exp(pp, out=pp)
        pp /= pp.sum(axis=-1, keepdims=True)
        step = ee[:-1] - ee[1:]
        work += float(np.multiply(step, pp[:-1], out=step).sum())
        step = pp[1:] - pp[:-1]
        heat += float(np.multiply(step, ee[1:], out=step).sum())
    return work, heat, ee[-1], pp[-1]


def reference_simulate(plan, n):
    """simulate's ledger from :func:`reference_isotherm`."""
    beta = plan.temperature.beta
    work, heat, last_e, last_p = reference_isotherm(plan.e1, plan.e2, beta, n)
    first_p = thermal(plan.e1, beta)
    u1 = float(first_p @ plan.e1)
    u2 = float(last_p @ last_e)
    return protocol._ledger(plan, u1, shannon(first_p), u2, shannon(last_p), work, heat)


def _scaled_plan(d, seed, log_s):
    """A random d-level plan with H scaled by 10^log_s and beta by its inverse."""
    rng = np.random.default_rng(seed)
    s = 10.0 ** log_s
    return build_plan(random_density_matrix(d, rng), Hamiltonian(s * random_hermitian(d, rng)),
                      Temperature(float(rng.uniform(0.2, 5.0)) / s))


def assert_simulate_bit_identical(plan, n):
    """The kernel's sums and end points and every ledger field are ``==``
    the reference's, and the end points do not keep the call's buffer alive."""
    beta = plan.temperature.beta
    work, heat, last_e, last_p = protocol._isotherm(plan.e1, plan.e2, beta, n)
    ref_work, ref_heat, ref_e, ref_p = reference_isotherm(plan.e1, plan.e2, beta, n)
    assert (work, heat) == (ref_work, ref_heat)
    assert np.array_equal(last_e, ref_e) and np.array_equal(last_p, ref_p)
    assert last_e.base is None and last_p.base is None
    assert simulate(plan, n) == reference_simulate(plan, n)


# step counts at the chunk edges
CHUNK_EDGES = [1, 2, 65535, 65536, 65537, 131073]


def leaf_edges(d):
    """Step counts whose n * d lies next to _LEAF - 8, _LEAF and _LEAF + 8, on
    either side: the largest chunk of one part and the smallest of two."""
    return sorted({max(1, -(-(protocol._LEAF + k) // d) + j) for k in (-8, 0, 8) for j in (-1, 0)})


@st.composite
def dims_and_steps(draw):
    # 11 and 33 do not divide _LEAF, so parts split rows between them
    d = draw(st.sampled_from([1, 2, 3, 11, 32, 33, 64]))
    return d, draw(st.sampled_from(CHUNK_EDGES + leaf_edges(d)))


@settings(max_examples=40, deadline=None)
@given(dims_and_steps(), st.integers(0, 10_000), st.floats(-12.0, 9.0))
def test_simulate_bit_identity(d_n, seed, log_s):
    d, n = d_n
    assert_simulate_bit_identical(_scaled_plan(d, seed, log_s), n)


@settings(max_examples=40, deadline=None)
@given(st.integers(129, 10**6), st.integers(0, 10_000))
def test_numpy_sum_bit_identity_at_its_pairwise_split(n, seed):
    # the premise of simulate's leaves: numpy sums a contiguous float64 array
    # (or a C-contiguous 2-d one, flat) pairwise, splitting a part of more
    # than 128 entries after h - h % 8 of them, h half its length
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    h = n // 2
    m = h - h % 8
    assert a.sum() == a[:m].sum() + a[m:].sum()
    d = int(rng.integers(1, 65))
    rows = a[:n - n % d].reshape(-1, d)
    assert rows.sum() == rows.reshape(-1).sum()


def test_simulate_bit_identity_over_a_sequence_of_calls():
    # no state is kept between calls, so a call after larger or smaller ones
    # gets the bits it gets alone
    plans = {d: _scaled_plan(d, 100 + d, 0.0) for d in (1, 2, 3, 11, 32, 64)}
    for d, n in [(2, 65537), (32, 100), (64, 10000), (3, 2), (64, 10001), (1, 131073),
                 (32, 65535), (11, 65536), (2, 1)]:
        assert_simulate_bit_identical(plans[d], n)


def _peak_bytes(call) -> int:
    """The tracemalloc peak of ``call()``, counted from its start."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _call_bound(d, n) -> int:
    """1 MiB, the n + 1 floats of the step schedule, and the maximum and the
    sum thermal forms per row of a part, as long as the buffer's rows at d = 1."""
    return 2**20 + 8 * (n + 1) + 16 * (protocol._LEAF // d + 2)


def test_simulate_bit_identity_in_at_most_1_mib_beside_the_schedule_up_to_d_64():
    # two parts or more, each touching as many rows as a part can: the
    # largest buffer a call allocates at this d, whatever n
    for d in range(1, 65):
        plan, n = _scaled_plan(d, d, 0.0), 2 * protocol._LEAF // d + 3
        assert _peak_bytes(lambda: simulate(plan, n)) <= _call_bound(d, n), d
        assert_simulate_bit_identical(plan, n)
    plan = _scaled_plan(64, 64, 0.0)
    assert _peak_bytes(lambda: simulate(plan, 10**6)) <= _call_bound(64, 10**6)
    # a part of these chunks touches _LEAF // d + 2 step rows, the most the buffer holds
    for d, n in ((11, 11915), (33, 3970)):
        assert_simulate_bit_identical(_scaled_plan(d, d, 0.0), n)


def test_simulate_leaves_no_reference_cycle():
    # a cycle would keep each call's step schedule and buffer alive until the
    # garbage collector next runs
    plan = _scaled_plan(3, 1, 0.0)
    gc.collect()
    gc.disable()
    try:
        simulate(plan, 3 * protocol._LEAF)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_simulate_bit_identity_in_threads_at_once():
    # more threads than the two cores CI gives, switching often; each call
    # allocates its own buffer, so a shared one would mix their rows
    calls = [[(_scaled_plan(64, 1, 3.0), 10000), (_scaled_plan(2, 2, -6.0), 65537)],
             [(_scaled_plan(32, 3, 0.0), 1000), (_scaled_plan(3, 4, 8.0), 131073)],
             [(_scaled_plan(8, 5, -2.0), 65536), (_scaled_plan(64, 6, 1.0), 5000)],
             [(_scaled_plan(1, 7, 0.0), 2), (_scaled_plan(32, 8, 5.0), 20000)]]
    serial = [[simulate(plan, n) for plan, n in mine] * 2 for mine in calls]
    barrier = threading.Barrier(len(calls), timeout=60)
    results = {}

    def run(k):
        barrier.wait()
        results[k] = [simulate(plan, n) for plan, n in calls[k] * 2]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results.get(k) for k in range(len(calls))] == serial


def reference_plan_arrays(rho, h, beta):
    """basis, v, populations, target_populations, the clamped state's matrix
    and e0, e1, e2 of build_plan with one eigh per energy level,
    one-dimensional levels included."""
    d = rho.dim
    a = np.clip(rho.spectrum(), DEFAULT_PURITY_CLAMP, 1.0 - DEFAULT_PURITY_CLAMP)
    a = a / a.sum()
    w_vecs = rho.eigenvectors
    rho_c = DensityMatrix._trusted((w_vecs * a) @ w_vecs.conj().T)
    hv = h.eigenvectors
    f_cols = []
    q_list = []
    for idx in h.clusters:
        cols = hv[:, idx]
        block = cols.conj().T @ rho_c.mat @ cols
        qk, gk = np.linalg.eigh((block + block.conj().T) / 2.0)
        f_cols.append(cols @ gk)
        q_list.extend(qk.tolist())
    basis = np.hstack(f_cols)
    q = np.maximum(np.array(q_list), 0.0)
    q = q / q.sum()
    rev = np.arange(d - 1, -1, -1)
    e1 = -np.log(a[rev]) / beta
    e1 -= e1.mean()
    e2 = -np.log(q) / beta
    e2 -= e2.mean()
    return (basis, basis[:, rev] @ w_vecs.conj().T, a[rev], q, rho_c.mat,
            np.repeat(h.energies, h.degeneracies), e1, e2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 8, 32]), st.sampled_from(["distinct", "identity", "mixed"]),
       st.booleans(), st.integers(0, 10_000), st.floats(-12.0, 9.0))
def test_build_plan_bit_identity(d, levels, rotate, seed, log_s):
    rng = np.random.default_rng(seed)
    e = {"distinct": np.sort(rng.normal(size=d)), "identity": np.ones(d),
         # one- and two-dimensional levels side by side
         "mixed": np.repeat(np.arange(d), 2)[:d].astype(float)}[levels]
    hm = np.diag(10.0 ** log_s * e).astype(complex)
    if rotate:
        u = random_unitary(d, rng)
        hm = (u * np.diag(hm)) @ u.conj().T
    h = Hamiltonian(hm)
    rho = random_density_matrix(d, rng)
    t = Temperature(10.0 ** -log_s)
    plan = build_plan(rho, h, t)
    for got, want in zip((plan.basis, plan.v, plan.populations, plan.target_populations,
                          plan.rho0.mat, plan.e0, plan.e1, plan.e2),
                         reference_plan_arrays(rho, h, t.beta)):
        assert got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 8]), st.integers(0, 10_000), st.floats(-12.0, 9.0),
       st.floats(-12.0, 9.0), st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
       st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
def test_replaced_plan_bit_identity(d, seed, log_s, log_s2, clamp, clamp2):
    # a plan with h0 and the clamp replaced is, field by field and ledger by
    # ledger, the plan built from the new inputs
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(d, rng)
    h = Hamiltonian(10.0 ** log_s * random_hermitian(d, rng))
    h2 = Hamiltonian(10.0 ** log_s2 * random_hermitian(d, rng))
    t = Temperature(10.0 ** -log_s2)
    plan = dataclasses.replace(build_plan(rho, h, t, clamp), h0=h2, purity_clamp=clamp2)
    want = build_plan(rho, h2, t, clamp2)
    assert_same_plan(plan, want)
    assert exact_step_works(plan) == exact_step_works(want)
    assert simulate(plan, 10) == simulate(want, 10)
