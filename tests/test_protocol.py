import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coherework.errors import (
    ClampRequiredError,
    NonFiniteError,
    NotUnitaryError,
    StateValidationError,
)
from coherework.linalg import hs_norm
from coherework.projection import energy_projectors, optimal_projection_work, project
from coherework.protocol import (
    LedgerEntry,
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
    rng_from_seed,
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
        for entry in exact_step_works(plan).entries:
            assert abs(entry.work) < 1e-10

    def test_rotated_state_is_thermal_for_h1(self):
        rng = rng_from_seed(31)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            t = Temperature(beta=float(rng.uniform(0.3, 3.0)))
            plan = build_plan(rho, h, t)
            rho1 = plan.v @ plan.rho0.mat @ plan.v.conj().T
            h1, h2 = auxiliary_hamiltonians(plan)
            assert hs_norm(gibbs_state(h1, t).mat - rho1) < 1e-8
            assert hs_norm(gibbs_state(h2, t).mat
                           - plan.target_state.mat) < 1e-8

    def test_target_is_block_projection(self):
        rng = rng_from_seed(32)
        rho = random_density_matrix(3, rng)
        h = Hamiltonian(np.diag([1.0, 1.0, 3.0]).astype(complex))
        plan = build_plan(rho, h, Temperature(beta=1.0))
        eta = project(rho, energy_projectors(h))
        assert hs_norm(plan.target_state.mat - eta.mat) < 1e-10

    def test_pure_state_needs_clamp(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        pure = bloch_qubit(1.0, 0.4)
        with pytest.raises(ClampRequiredError):
            build_plan(pure, h, Temperature(beta=1.0), purity_clamp=0.0)
        plan = build_plan(pure, h, Temperature(beta=1.0), purity_clamp=1e-9)
        assert plan.purity_clamp == 1e-9

    def test_clamp_range_validated(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        with pytest.raises(ValueError):
            build_plan(bloch_qubit(0.8, 0.4), h, Temperature(beta=1.0),
                       purity_clamp=0.01)

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

    def test_custom_pairing_changes_path_not_totals(self, canonical_qubit):
        # pairing relabels which slot carries which population; the rotation
        # and the discretised isotherm path change, the exact totals do not
        rho, h, t = canonical_qubit
        default = build_plan(rho, h, t)
        swapped = build_plan(rho, h, t, pairing=(0, 1))
        assert np.abs(default.v - swapped.v).max() > 0.5
        l1, l2 = exact_step_works(default), exact_step_works(swapped)
        assert l1.totals.work == pytest.approx(l2.totals.work, abs=1e-10)
        coarse1 = simulate(default, 10).entries[1].work
        coarse2 = simulate(swapped, 10).entries[1].work
        assert abs(coarse1 - coarse2) > 1e-3

    def test_bad_pairing_rejected(self, canonical_qubit):
        rho, h, t = canonical_qubit
        with pytest.raises(ValueError, match="permutation"):
            build_plan(rho, h, t, pairing=(0, 0))


class TestPlanRejections:
    """Every check of ``ProtocolPlan`` rejects a plan that breaks it."""

    @pytest.mark.parametrize("change, error, message", [
        (lambda p: {"v": 2.0 * p.v}, NotUnitaryError, "step-1 rotation is not unitary"),
        (lambda p: {"basis": 2.0 * p.basis}, NotUnitaryError,
         "shared eigenbasis is not unitary"),
        (lambda p: {"e1": p.e1[::-1]}, StateValidationError, "not thermal for H1"),
        (lambda p: {"e2": p.e2[::-1]}, StateValidationError, "not thermal for H2"),
        (lambda p: {"h0": Hamiltonian(np.array([[0.0, 1.0], [1.0, 0.0]]))},
         StateValidationError, "H0 and H1 do not share eigenprojectors"),
    ], ids=["v", "basis", "e1", "e2", "h0"])
    def test_broken_plan_is_rejected(self, canonical_qubit, change, error, message):
        plan = build_plan(*canonical_qubit)
        with pytest.raises(error, match=message):
            dataclasses.replace(plan, **change(plan))

    @pytest.mark.parametrize("beta", [1e-310, 5e-324])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_vanishing_beta_is_non_finite(self, canonical_qubit, beta):
        rho, h, _ = canonical_qubit
        with pytest.raises(NonFiniteError,
                           match=r"matrix of shape \(2, 2\) has NaN or infinite entries"):
            build_plan(rho, h, Temperature(beta))


class TestExactStepWorks:
    def test_worked_qubit_total(self, canonical_qubit):
        rho, h, t = canonical_qubit
        totals = exact_step_works(build_plan(rho, h, t)).totals
        assert totals.work == pytest.approx(W_OPT_CANONICAL, abs=1e-10)
        assert totals.energy_change == pytest.approx(0.0, abs=1e-10)

    def test_matches_projection_work_on_random_instances(self):
        rng = rng_from_seed(33)
        rho = random_density_matrix(4, rng)
        h = random_hamiltonian(4, rng)
        t = Temperature(beta=2.0)
        totals = exact_step_works(build_plan(rho, h, t)).totals
        rep = optimal_projection_work(rho, h, energy_projectors(h), t)
        assert totals.work == pytest.approx(rep.work, abs=1e-9)

    def test_degenerate_hamiltonian(self):
        rng = rng_from_seed(34)
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
        assert any(abs(e.work) > 1e-3 for e in ledger.entries)

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
        for e in exact_step_works(build_plan(rho, h, t)).entries:
            assert e.energy_change == pytest.approx(
                e.heat_absorbed - e.work, abs=1e-12)

    def test_isolated_steps_have_zero_heat(self, canonical_qubit):
        rho, h, t = canonical_qubit
        ledger = exact_step_works(build_plan(rho, h, t))
        assert ledger.entries[0].label == "rotate"
        assert ledger.entries[0].heat_absorbed == 0.0
        assert ledger.entries[2].label == "quench"
        assert ledger.entries[2].heat_absorbed == 0.0


class TestSimulate:
    def test_trivial_plan_all_zero(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        ledger = simulate(build_plan(gibbs_state(h, t), h, t), 50)
        for e in ledger.entries:
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
        assert ledger.entries[0].heat_absorbed == 0.0
        assert ledger.entries[2].heat_absorbed == 0.0
        assert abs(ledger.entries[1].heat_absorbed) > 1e-3

    def test_endpoints_thermal(self, canonical_qubit):
        rho, h, t = canonical_qubit
        plan = build_plan(rho, h, t)
        ledger = simulate(plan, 10)
        # the staircase state is exactly thermal at both ends, so the
        # isotherm's entropy change matches the closed form
        exact = exact_step_works(plan)
        assert ledger.entries[1].entropy_change == pytest.approx(
            exact.entries[1].entropy_change, abs=1e-12)

    def test_energy_conservation_of_totals(self):
        rng = rng_from_seed(35)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            t = Temperature(beta=1.0)
            totals = simulate(build_plan(rho, h, t), 500).totals
            assert abs(totals.energy_change) < 1e-8

    def test_first_law_per_entry_large_step_count(self, canonical_qubit):
        rho, h, t = canonical_qubit
        for e in simulate(build_plan(rho, h, t), 10**5).entries:
            assert e.energy_change == pytest.approx(
                e.heat_absorbed - e.work, abs=1e-10)

    def test_steps_validated(self, canonical_qubit):
        rho, h, t = canonical_qubit
        with pytest.raises(ValueError):
            simulate(build_plan(rho, h, t), 0)


class TestWorkLedger:
    def test_totals_sum_entries(self):
        entries = (
            LedgerEntry("a", work=1.0, heat_absorbed=0.0,
                        energy_change=-1.0, entropy_change=0.0),
            LedgerEntry("b", work=-0.25, heat_absorbed=0.5,
                        energy_change=0.75, entropy_change=0.4),
        )
        ledger = WorkLedger(entries)
        assert ledger.totals.work == pytest.approx(0.75)
        assert ledger.totals.heat_absorbed == pytest.approx(0.5)
        assert ledger.totals.entropy_change == pytest.approx(0.4)

    def test_first_law_enforced(self):
        bad = LedgerEntry("x", work=1.0, heat_absorbed=0.0,
                          energy_change=1.0, entropy_change=0.0)
        with pytest.raises(ValueError, match="first law"):
            WorkLedger((bad,))

    def test_clamp_recorded(self, canonical_qubit):
        rho, h, t = canonical_qubit
        ledger = exact_step_works(build_plan(rho, h, t, purity_clamp=1e-7))
        assert ledger.purity_clamp == 1e-7


def _works(rho, hm, beta):
    """Optimal projection work, exact ledger total and simulated total."""
    h = Hamiltonian(hm)
    t = Temperature(beta)
    plan = build_plan(rho, h, t)
    return (optimal_projection_work(rho, h, energy_projectors(h), t).work,
            exact_step_works(plan).totals.work,
            simulate(plan, 100).totals.work)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(-3.0, 9.0), st.booleans())
def test_units_of_energy_and_temperature_rescale_work(seed, log_s, degenerate):
    # (s H, beta / s) is the same physics in other units: W(sH, beta/s) = s W(H, beta)
    rng = rng_from_seed(seed)
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
    with pytest.raises(ValueError, match="first law"):
        WorkLedger((LedgerEntry("x", entropy_change=0.0, **values),))
