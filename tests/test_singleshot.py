import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coherework.singleshot as singleshot
from coherework.errors import (
    AlphabetTooLargeError,
    DimMismatchError,
    NonFiniteError,
    StateValidationError,
)
from coherework.linalg import thermal
from coherework.protocol import build_plan
from coherework.sampling import random_density_matrix, random_hamiltonian
from coherework.singleshot import (
    Distribution,
    consistency_work,
    d_max_eps,
    d_min_eps,
    iid_rate,
    kl_bits,
    smoothing_failure_probability,
)
from coherework.states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    average_energy,
    gibbs_state,
)


def binary_entropy(x):
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


W_OPT_CANONICAL = binary_entropy(0.65) - binary_entropy(0.8)


def dist(*probs):
    return Distribution(np.array(probs, dtype=float))


def dmin_bruteforce(p, q, eps):
    best = math.inf
    d = len(p)
    for r in range(1, d + 1):
        for subset in itertools.combinations(range(d), r):
            if sum(p[k] for k in subset) >= 1 - eps - 1e-12:
                best = min(best, sum(q[k] for k in subset))
    return -math.log2(best)


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(StateValidationError, match="negative"):
            dist(1.2, -0.2)

    @pytest.mark.parametrize("probs, message", [
        ((1.2, -0.2), r"^Distribution: negative probability -0\.2$"),
        ((0.5, 0.4), r"^Distribution: probabilities sum to 0\.9, not 1$"),
    ], ids=["negative", "unnormalised"])
    def test_messages_print_plain_numbers(self, probs, message):
        # not numpy's scalar repr, np.float64(0.9)
        with pytest.raises(StateValidationError, match=message):
            dist(*probs)

    @pytest.mark.parametrize("probs", [np.full((2, 2), 0.25), np.array([])],
                             ids=["2-d", "empty"])
    def test_rejects_a_shape_other_than_nonempty_1d(self, probs):
        with pytest.raises(StateValidationError,
                           match="^Distribution: needs a nonempty 1-d array$"):
            Distribution(probs)

    def test_rejects_unnormalised(self):
        with pytest.raises(StateValidationError, match="sum"):
            dist(0.5, 0.4)

    def test_rejects_nan(self):
        # every comparison with NaN is False, so the sign and sum checks miss it
        with pytest.raises(NonFiniteError):
            dist(math.nan, 0.5)
        with pytest.raises(NonFiniteError):
            Distribution.normalized([math.nan, 1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_normalized_rejects_infinity_before_dividing(self, bad):
        # inf / inf would make numpy warn before the constructor's own check,
        # and clipping would turn -inf into a silent 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="NaN or infinity"):
                Distribution.normalized([bad, 1.0])

    def test_normalized_bounds_an_overflowing_sum(self):
        # finite weights whose sum overflows are scaled by the largest first
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = Distribution.normalized([1e308, 1e308])
        np.testing.assert_array_equal(d.probs, [0.5, 0.5])

    def test_normalized_constructor(self):
        d = Distribution.normalized([0.5, 0.5 - 1e-15, -1e-18])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert d.probs.min() >= 0.0


class TestDMin:
    def test_equal_uniform(self):
        u = dist(0.5, 0.5)
        assert d_min_eps(u, u, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_point_mass_against_uniform(self):
        assert d_min_eps(dist(1.0, 0.0), dist(0.5, 0.5), 0.0) == pytest.approx(
            1.0, abs=1e-14)

    def test_smoothing_drops_small_outcome(self):
        val = d_min_eps(dist(0.9, 0.1), dist(0.5, 0.5), 0.1)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(d))
            q = np.maximum(rng.dirichlet(np.ones(d)), 1e-3)
            q /= q.sum()
            eps = float(rng.uniform(0, 0.6))
            assert d_min_eps(Distribution(p), Distribution(q), eps) == (
                pytest.approx(dmin_bruteforce(p, q, eps), abs=1e-12))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_eps(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        p = Distribution(rng.dirichlet(np.ones(d)))
        q = Distribution.normalized(np.maximum(rng.dirichlet(np.ones(d)), 1e-3))
        values = [d_min_eps(p, q, eps) for eps in (0.0, 0.1, 0.2, 0.4)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_eps(self):
        u = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d_min_eps(u, u, 1.0)

    def test_rejects_zero_support_q(self):
        with pytest.raises(ValueError, match="full support"):
            d_min_eps(dist(0.5, 0.5), dist(1.0, 0.0), 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            d_min_eps(dist(0.5, 0.5), dist(0.3, 0.3, 0.4), 0.0)

    def test_alphabet_cap(self):
        n = 17
        u = Distribution(np.full(n, 1.0 / n))
        with pytest.raises(AlphabetTooLargeError):
            d_min_eps(u, u, 0.0)


class TestDMax:
    def test_equal_distributions(self):
        u = dist(0.3, 0.7)
        for eps in (0.0, 0.1, 0.5):
            assert d_max_eps(u, u, eps) == pytest.approx(0.0, abs=1e-14)

    def test_point_mass_against_uniform(self):
        assert d_max_eps(dist(1.0, 0.0), dist(0.5, 0.5), 0.0) == pytest.approx(
            1.0, abs=1e-14)

    def test_water_reduction_example(self):
        val = d_max_eps(dist(0.9, 0.1), dist(0.5, 0.5), 0.1)
        assert val == pytest.approx(math.log2(1.6), abs=1e-12)
        assert math.log2(1.6) == pytest.approx(0.6780719051126377, abs=1e-15)

    def test_unsmoothed_is_max_ratio(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            q = np.maximum(rng.dirichlet(np.ones(d)), 1e-3)
            q /= q.sum()
            assert d_max_eps(Distribution(p), Distribution(q), 0.0) == (
                pytest.approx(math.log2((p / q).max()), abs=1e-12))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_eps(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        p = Distribution(rng.dirichlet(np.ones(d)))
        q = Distribution.normalized(np.maximum(rng.dirichlet(np.ones(d)), 1e-3))
        values = [d_max_eps(p, q, eps) for eps in (0.0, 0.1, 0.2, 0.4)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_large_eps_reaches_zero(self):
        p = dist(0.9, 0.1)
        q = dist(0.5, 0.5)
        # TV(p, q) = 0.4, so any eps above that smooths p onto q
        assert d_max_eps(p, q, 0.45) == pytest.approx(0.0, abs=1e-14)


class TestSandwich:
    def test_min_kl_max_ordering(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            p = Distribution(rng.dirichlet(np.ones(d)))
            q = Distribution.normalized(np.maximum(rng.dirichlet(np.ones(d)), 1e-3))
            kl = kl_bits(p, q)
            assert d_min_eps(p, q, 0.0) <= kl + 1e-12
            assert kl <= d_max_eps(p, q, 0.0) + 1e-12


class TestIidRate:
    def test_equal_distributions_at_zero_eps(self):
        u = dist(0.4, 0.6)
        for n in (1, 8, 64):
            rates = iid_rate(u, u, 0.0, n)
            assert rates.rate_min == pytest.approx(0.0, abs=1e-12)
            assert rates.rate_max == pytest.approx(0.0, abs=1e-12)

    def test_equal_distributions_smoothing_gain(self):
        # the only gain left is the log(1 - eps) of the fractional test
        u = dist(0.4, 0.6)
        eps = 0.05
        for n in (4, 16):
            rates = iid_rate(u, u, eps, n)
            assert rates.rate_min == pytest.approx(-math.log2(1 - eps) / n,
                                                   abs=1e-10)
            assert rates.rate_max == pytest.approx(0.0, abs=1e-12)

    def test_single_copy_equals_base_quantities(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            p = Distribution.normalized(np.maximum(rng.dirichlet(np.ones(d)), 1e-3))
            q = Distribution.normalized(np.maximum(rng.dirichlet(np.ones(d)), 1e-3))
            rates = iid_rate(p, q, 0.0, 1)
            assert rates.rate_min == pytest.approx(d_min_eps(p, q, 0.0), abs=1e-12)
            assert rates.rate_max == pytest.approx(d_max_eps(p, q, 0.0), abs=1e-12)

    def test_aep_convergence_direction(self):
        p = dist(0.8, 0.2)
        q = dist(0.5, 0.5)
        kl = kl_bits(p, q)
        assert kl == pytest.approx(0.27807190511263774, abs=1e-15)
        r8 = iid_rate(p, q, 0.05, 8)
        r64 = iid_rate(p, q, 0.05, 64)
        assert abs(r64.rate_min - kl) < abs(r8.rate_min - kl)
        assert abs(r64.rate_max - kl) < abs(r8.rate_max - kl)
        assert abs(r64.rate_min - kl) < 0.15
        assert abs(r64.rate_max - kl) < 0.15

    def test_three_letter_alphabet(self):
        p = dist(0.6, 0.25, 0.15)
        q = dist(0.3, 0.35, 0.35)
        kl = kl_bits(p, q)
        gaps_min, gaps_max = [], []
        for n in (4, 16, 64):
            rates = iid_rate(p, q, 0.05, n)
            gaps_min.append(abs(rates.rate_min - kl))
            gaps_max.append(abs(rates.rate_max - kl))
        assert gaps_min[0] > gaps_min[1] > gaps_min[2]
        assert gaps_max[0] > gaps_max[1] > gaps_max[2]

    def test_alphabet_cap(self):
        u = Distribution(np.full(6, 1.0 / 6))
        with pytest.raises(AlphabetTooLargeError):
            iid_rate(u, u, 0.0, 64)

    def test_one_outcome_cap_bounds_the_log_factorial_table(self):
        # one outcome has one type class at any n, but n + 1 log-factorials
        one = Distribution(np.array([1.0]))
        cap = singleshot._MAX_TYPE_CLASSES
        assert all(map(math.isfinite, iid_rate(one, one, 0.05, cap - 1)))
        with pytest.raises(AlphabetTooLargeError, match=f"{cap + 1} log-factorials"):
            iid_rate(one, one, 0.05, cap)

    def test_requires_full_support_p(self):
        with pytest.raises(ValueError, match="full support"):
            iid_rate(dist(1.0, 0.0), dist(0.5, 0.5), 0.0, 4)

    @pytest.mark.parametrize("n", [1, 8, 64, 256])
    def test_rate_max_matches_linear_domain_cap(self, n):
        # below the underflow the cap can be bisected on plain class masses
        p, q = dist(0.22205631, 0.77794369), dist(0.92353653, 0.07646347)
        for eps in (0.0, 0.05, 0.3):
            expected = linear_cap_rate(p.probs, q.probs, eps, n)
            assert iid_rate(p, q, eps, n).rate_max == pytest.approx(expected, rel=1e-12)

    def test_rate_max_past_mass_underflow(self):
        # class masses below e^-745 used to turn the ratio cap into inf
        p, q = dist(0.22205631, 0.77794369), dist(0.92353653, 0.07646347)
        rates = [iid_rate(p, q, 0.05, n).rate_max for n in (256, 512, 1024)]
        assert all(math.isfinite(r) for r in rates)
        kl = kl_bits(p, q)
        assert rates[0] > rates[1] > rates[2] > kl


def linear_cap_rate(p, q, eps, n):
    """Per-copy log2 of the cap t* solving sum_k (P_k - t Q_k)_+ = eps over the
    binary type classes of n copies, by bisection of log t on linear-domain
    masses."""
    ks = np.arange(n + 1)
    log_mult = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                         for k in ks])
    big_p = np.exp(log_mult + ks * math.log(p[0]) + (n - ks) * math.log(p[1]))
    big_q = np.exp(log_mult + ks * math.log(q[0]) + (n - ks) * math.log(q[1]))
    shaved = lambda t: float(np.maximum(big_p - t * big_q, 0.0).sum())
    if shaved(1.0) <= eps:
        return 0.0
    lo, hi = 0.0, math.log(float((big_p / big_q).max()))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if shaved(math.exp(mid)) > eps else (lo, mid)
    return hi / math.log(2) / n


def consistency_work_composed(rho, h, t, eps, n_copies, purity_clamp):
    """consistency_work as first written, building its own plan from (rho, H, T)."""
    plan = build_plan(rho, h, t, purity_clamp=purity_clamp)
    beta = t.beta
    gibbs = Distribution.normalized(thermal(plan.e0, beta))
    populations = Distribution.normalized(plan.populations)
    target = Distribution.normalized(plan.target_populations)
    w_a = average_energy(plan.rho0, h) - float(plan.populations @ plan.e0)
    rate_min = iid_rate(populations, gibbs, eps, n_copies).rate_min
    rate_max = iid_rate(target, gibbs, eps, n_copies).rate_max
    return w_a + (singleshot.LN2 / beta) * (rate_min - rate_max)


class TestConsistencyWork:
    @pytest.mark.parametrize("clamp", [0.0, 1e-9, 1e-3])
    def test_matches_composition_with_its_own_plan(self, clamp):
        rng = np.random.default_rng(808)
        for d in (2, 3, 4):
            rho = random_density_matrix(d, rng)
            h = random_hamiltonian(d, rng)
            t = Temperature(beta=0.5 + d / 4)
            plan = build_plan(rho, h, t, purity_clamp=clamp)
            for eps in (0.0, 0.05):
                for n in (1, 8, 32):
                    got = consistency_work(plan, eps, n)
                    ref = consistency_work_composed(rho, h, t, eps, n, clamp)
                    assert got.hex() == ref.hex()

    def test_thermal_state_exact_at_zero_eps(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        plan = build_plan(gibbs_state(h, t), h, t)
        for n in (1, 8, 32):
            assert consistency_work(plan, 0.0, n) == pytest.approx(0.0, abs=1e-9)

    def test_thermal_state_smoothing_residue_shrinks(self):
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        plan = build_plan(gibbs_state(h, t), h, t)
        eps = 0.05
        values = [consistency_work(plan, eps, n) for n in (8, 16, 32, 64)]
        # only the fractional-test gain ln(1/(1-eps)) / n survives
        for n, v in zip((8, 16, 32, 64), values):
            assert v == pytest.approx(-math.log(1 - eps) / n, abs=1e-9)

    def test_worked_qubit_error_shrinks(self, canonical_qubit):
        plan = build_plan(*canonical_qubit)
        errors = [abs(consistency_work(plan, 0.05, n) - W_OPT_CANONICAL)
                  for n in (8, 16, 32)]
        assert errors[2] < errors[1] < errors[0]

    def test_diagonal_nonthermal_state_converges_to_zero(self):
        # projecting a diagonal state extracts nothing; the extract/form legs
        # cancel in the many-copy limit (the smoothing requires eps > 0)
        h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
        t = Temperature(beta=1.0)
        rho = DensityMatrix(np.diag([0.35, 0.65]))
        plan = build_plan(rho, h, t)
        values = [abs(consistency_work(plan, 0.05, n))
                  for n in (8, 16, 32, 64)]
        assert values[0] > values[1] > values[2] > values[3]

    def test_single_copy_closed_form_anchor(self, canonical_qubit):
        # at eps = 0, n = 1 the value is W_a plus the unsmoothed
        # min/max difference, all reconstructible by hand
        rho, h, t = canonical_qubit
        gibbs = math.e / (math.e + 1 / math.e)
        g = dist(gibbs, 1 - gibbs)
        populations = dist(0.8, 0.2)  # descending onto ascending energies
        target = dist(0.65, 0.35)
        w_a = -0.3 - (-0.6)  # tr[rho H] - tr[rho_1 H]
        expected = w_a + math.log(2) * (d_min_eps(populations, g, 0.0)
                                        - d_max_eps(target, g, 0.0))
        assert consistency_work(build_plan(rho, h, t), 0.0, 1) == pytest.approx(
            expected, abs=1e-9)


class TestMisc:
    def test_failure_probability(self):
        assert smoothing_failure_probability(0.05) == pytest.approx(
            2 * 0.05 - 0.05**2, abs=1e-15)

    def test_kl_with_zero_in_p(self):
        assert kl_bits(dist(1.0, 0.0), dist(0.5, 0.5)) == pytest.approx(
            1.0, abs=1e-14)

    def test_ln2_constant_is_live(self, monkeypatch):
        # the bits conversion routes through the module constant so the
        # acceptance mutation test has a single point to corrupt
        p, q = dist(1.0, 0.0), dist(0.5, 0.5)
        base = d_min_eps(p, q, 0.0)
        monkeypatch.setattr(singleshot, "LN2", singleshot.LN2 / 2)
        assert d_min_eps(p, q, 0.0) == pytest.approx(2 * base, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_type_classes_match_product_oracle_in_order(m, n):
    oracle = [list(k) for k in itertools.product(range(n + 1), repeat=m) if sum(k) == n]
    assert singleshot._type_classes(n, m).tolist() == oracle


def recursive_compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in recursive_compositions(n - k, parts - 1):
            yield (k,) + rest


def recursive_iid_rate(p, q, eps, n):
    """The type-class path with a recursive composition generator and
    elementwise lgamma; the ratio cap and the rate formulas are shared."""
    ks = np.array(list(recursive_compositions(n, len(p))), dtype=float)
    log_mult = math.lgamma(n + 1) - np.vectorize(math.lgamma)(ks + 1.0).sum(axis=1)
    log_p, log_q = ks @ np.log(p.probs), ks @ np.log(q.probs)
    log_cp, log_cq = log_mult + log_p, log_mult + log_q
    order = np.argsort(-(log_p - log_q))
    cls_p, log_cls_q = np.exp(log_cp[order]), log_cq[order]
    cum = np.cumsum(cls_p)
    boundary = int(np.searchsorted(cum, 1.0 - eps - 1e-15))
    terms = list(log_cls_q[:boundary])
    if boundary < len(cls_p):
        needed = 1.0 - eps - (cum[boundary - 1] if boundary > 0 else 0.0)
        if needed > 0.0 and cls_p[boundary] > 0.0:
            terms.append(log_cls_q[boundary] + math.log(min(needed / cls_p[boundary], 1.0)))
    top = max(terms)
    log_qa = top + math.log(np.exp(np.array(terms) - top).sum())
    rate_max = singleshot._log_cap_threshold(log_cp, log_cq, eps) / singleshot.LN2 / n
    return (-log_qa / singleshot.LN2) / n, rate_max


def test_iid_rate_bit_equal_to_recursive_path():
    rng = np.random.default_rng(102)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, {1: 512, 2: 256, 3: 40, 4: 16}[d]))
        p = Distribution.normalized(np.maximum(rng.dirichlet(np.ones(d)), 1e-3))
        q = Distribution.normalized(np.maximum(rng.dirichlet(np.ones(d)), 1e-3))
        eps = float(rng.choice([0.0, 0.01, 0.1, 0.4]))
        assert tuple(iid_rate(p, q, eps, n)) == recursive_iid_rate(p, q, eps, n)
