"""Embedded acceptance suite.

Each criterion is a self-contained check with its own seeds, tolerances, and
runtime budget; `coherework self-test` runs them all and prints one PASS/FAIL
line per criterion (no timings in the lines, so repeated runs of the same
build emit identical bytes; ``--verbose`` adds each criterion's detail and
time). Reference values are recomputed here through independent oracles (raw
matrix arithmetic, brute-force enumeration, linear programming, scalar
formulas) rather than through the code paths under test.

The d_max LP oracle of criterion 07 solves one block-diagonal LP per
(alphabet size, eps) rather than one LP per instance, which pays the
solver's set-up once per 25 instances. The two give the same values: the
blocks share no variable or constraint, so the feasible set is the product of
the instances' feasible sets, and the objective, the sum of the instances'
ratio caps t, is minimal exactly when each t is minimal over its own block.
Each t of the block optimum is therefore the optimum of its instance's LP
solved alone, and the oracle stays as sensitive to a single instance.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag

from . import singleshot
from .correlations import (
    BipartiteState,
    delta_correlation,
    global_optimal_work,
    local_project,
    verify_lemma1,
)
from .fluctuation import (
    average_unitary_work,
    jarzynski_average,
    projection_heat,
    sample_trajectories,
    transition_table,
)
from .projection import (
    ProjectorSet,
    energy_projectors,
    entropy_change_bound,
    max_work_fixed_energy,
    optimal_projection_work,
)
from .protocol import build_plan, exact_step_works, simulate
from .sampling import (
    random_bipartite_state,
    random_density_matrix,
    random_hamiltonian,
    random_projector_set,
    random_unitary,
)
from .singleshot import Distribution, consistency_work, d_max_eps, d_min_eps, kl_bits
from .states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    bloch_qubit,
    gibbs_state,
    partial_trace,
    purify,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float


# ---------------------------------------------------------------------------
# oracle helpers (independent of the library code paths they check)


def _oracle_entropy(mat: np.ndarray) -> float:
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    w = w[w > 1e-14]
    return float(-(w * np.log(w)).sum())


def _oracle_project(mat: np.ndarray, projectors) -> np.ndarray:
    out = np.zeros_like(mat)
    for p in projectors:
        out += p @ mat @ p
    return out


def _binary_entropy(x: float) -> float:
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def _canonical_instance():
    """The worked qubit: populations (0.8, 0.2), basis angle pi/3, beta 1."""
    rho = bloch_qubit(0.8, math.pi / 3)
    h = Hamiltonian(np.diag([-1.0, 1.0]).astype(complex))
    t = Temperature(beta=1.0)
    return rho, h, t


def _canonical_reference() -> float:
    """Optimal work of the worked qubit from the binary-entropy oracle."""
    a, theta = 0.8, math.pi / 3
    p = 0.5 * (1.0 + (2.0 * a - 1.0) * math.cos(theta))
    return _binary_entropy(p) - _binary_entropy(a)


def _projection_instances():
    """The 1000 seeded (i, rho, h, p, t) instances of criteria 1 and 2, dims
    2..6: every fifth family is h's energy projectors, and every tenth state
    commutes with its family."""
    rng = np.random.default_rng(101)
    for i in range(1000):
        dim = 2 + i % 5
        t = Temperature(beta=float(np.exp(rng.uniform(math.log(0.1), math.log(10.0)))))
        rho = random_density_matrix(dim, rng)
        h = random_hamiltonian(dim, rng)
        p = random_projector_set(dim, rng)
        if i % 5 == 0:
            p = energy_projectors(h)
        if i % 10 == 0:
            # state commuting with the projector basis: work must vanish
            probs = rng.dirichlet(np.ones(dim))
            mat = sum(float(w) * pk for w, pk in zip(probs, p.projectors))
            mat = mat / np.trace(mat).real
            rho = DensityMatrix(mat)
        yield i, rho, h, p, t


def _tpm_instance(rng, dim, beta_low, beta_high):
    """A thermal two-point-measurement setup: beta uniform in [beta_low,
    beta_high], random H0, Htau and V, and their transition table."""
    t = Temperature(beta=float(rng.uniform(beta_low, beta_high)))
    h0 = random_hamiltonian(dim, rng)
    htau = random_hamiltonian(dim, rng)
    v = random_unitary(dim, rng)
    return t, h0, htau, v, transition_table(h0, htau, v, t)


# ---------------------------------------------------------------------------
# criteria


def _check_projection_work_identity():
    worst_identity = 0.0
    worst_commuting = 0.0
    for i, rho, h, p, t in _projection_instances():
        rep = optimal_projection_work(rho, h, p, t)
        eta = _oracle_project(rho.mat, p.projectors)
        d_s = _oracle_entropy(eta) - _oracle_entropy(rho.mat)
        d_u = float(np.trace(h.mat @ (eta - rho.mat)).real)
        worst_identity = max(worst_identity,
                             abs(rep.work - (d_s / t.beta - d_u)))
        if rep.entropy_change < -1e-10:
            return False, f"entropy change {rep.entropy_change:.3e} < -1e-10"
        if i % 10 == 0:
            worst_commuting = max(worst_commuting, abs(rep.work))
    ok = worst_identity <= 1e-9 and worst_commuting <= 1e-9
    return ok, (f"max |W - (dS/beta - dU)| = {worst_identity:.2e}, "
                f"max |W| on commuting instances = {worst_commuting:.2e}")


def _check_three_step_optimality():
    worst = 0.0
    for _, rho, h, _, t in _projection_instances():
        plan = build_plan(rho, h, t)
        target = optimal_projection_work(rho, h, energy_projectors(h), t).work
        gap = abs(exact_step_works(plan).totals.work - target)
        # the default purity clamp is inactive on these full-rank samples, so
        # no clamp error budget is added
        worst = max(worst, gap)
    return worst <= 1e-9, f"max |exact totals - W_opt| = {worst:.2e}"


def _check_quasistatic_convergence():
    rho, h, t = _canonical_instance()
    w_ref = _canonical_reference()
    plan = build_plan(rho, h, t)
    steps = [100, 1000, 10000, 100000]
    errors = [abs(simulate(plan, n).totals.work - w_ref) for n in steps]
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    ok = -1.1 <= slope <= -0.9 and errors[-1] < 1e-4
    return ok, (f"log-log slope = {slope:.4f}, "
                f"error at 1e5 steps = {errors[-1]:.2e}")


def _check_entropy_change_bound():
    rng = np.random.default_rng(404)
    worst_excess = -math.inf
    for i in range(1000):
        dim = 2 + i % 5
        rho = random_density_matrix(dim, rng)
        p = random_projector_set(dim, rng)
        bound = entropy_change_bound(rho, p)
        d_s = (_oracle_entropy(_oracle_project(rho.mat, p.projectors))
               - _oracle_entropy(rho.mat))
        worst_excess = max(worst_excess, bound - d_s)
    if worst_excess > 1e-8:
        return False, f"bound exceeds entropy change by {worst_excess:.2e}"

    comp = ProjectorSet.from_basis(np.eye(2, dtype=complex))
    worst_closed = 0.0
    for _ in range(200):
        a = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi))
        general = entropy_change_bound(bloch_qubit(a, theta), comp)
        closed = 0.25 * (2.0 * a - 1.0) ** 2 * math.sin(theta) ** 2
        worst_closed = max(worst_closed, abs(general - closed))
    if worst_closed > 1e-12:
        return False, f"qubit closed form deviates by {worst_closed:.2e}"

    pure_mub = bloch_qubit(1.0, math.pi / 2)
    bound = entropy_change_bound(pure_mub, comp)
    d_s = (_oracle_entropy(_oracle_project(pure_mub.mat, comp.projectors))
           - _oracle_entropy(pure_mub.mat))
    ok = abs(bound - 0.25) <= 1e-12 and abs(d_s - math.log(2.0)) <= 1e-12
    return ok, (f"bound <= dS margin {-worst_excess:.2e}; closed-form gap "
                f"{worst_closed:.2e}; worked case bound = {bound:.12f}, "
                f"dS = {d_s:.12f}")


def _check_jarzynski_identity():
    rng = np.random.default_rng(505)
    worst_jarzynski = 0.0
    worst_unitary = 0.0
    worst_commuting = 0.0
    min_coherent = math.inf
    for i in range(100):
        dim = 2 + i % 5
        t, h0, htau, v, table = _tpm_instance(rng, dim, 0.2, 2.0)
        z0 = np.exp(-t.beta * h0.eigenvalues).sum()
        ztau = np.exp(-t.beta * htau.eigenvalues).sum()
        worst_jarzynski = max(worst_jarzynski,
                              abs(jarzynski_average(table) - ztau / z0))

        rho0 = gibbs_state(h0, t)
        rho_tau = v @ rho0.mat @ v.conj().T
        state_side = float(np.trace(rho0.mat @ h0.mat).real
                           - np.trace(rho_tau @ htau.mat).real)
        worst_unitary = max(worst_unitary,
                            abs(average_unitary_work(table) - state_side))

        heat = projection_heat(DensityMatrix(rho_tau), htau, t)
        if heat < -1e-10:
            return False, f"projection heat {heat:.3e}"
        coherent = projection_heat(random_density_matrix(dim, rng), htau, t)
        min_coherent = min(min_coherent, coherent)
        diag = gibbs_state(htau, t)  # commutes with htau
        worst_commuting = max(worst_commuting,
                              abs(projection_heat(diag, htau, t)))
    ok = (worst_jarzynski <= 1e-10 and worst_unitary <= 1e-10
          and worst_commuting <= 1e-12 and min_coherent > 1e-10)
    return ok, (f"max |<e^bW> - e^-b dF| = {worst_jarzynski:.2e}, "
                f"max unitary-work gap = {worst_unitary:.2e}, commuting heat "
                f"<= {worst_commuting:.2e}, coherent heat >= {min_coherent:.2e}")


def _check_monte_carlo():
    rng = np.random.default_rng(606)
    worst_z = 0.0
    for i in range(10):
        table = _tpm_instance(rng, 2 + i % 3, 0.3, 1.5)[-1]
        exact = jarzynski_average(table)
        seed = 9000 + i
        stats = sample_trajectories(table, 10**6, seed)
        again = sample_trajectories(table, 10**6, seed)
        if (stats.exp_beta_w_estimate != again.exp_beta_w_estimate
                or stats.work_estimate != again.work_estimate
                or not np.array_equal(stats.delta_e_counts, again.delta_e_counts)):
            return False, f"rerun with seed {seed} not bit-identical"
        if stats.exp_beta_w_std_error <= 0.0:
            return False, "degenerate standard error"
        worst_z = max(worst_z, abs(stats.exp_beta_w_estimate - exact)
                      / stats.exp_beta_w_std_error)
    return worst_z <= 5.0, f"max |estimate - exact| = {worst_z:.2f} standard errors"


def _dmin_bruteforce(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    best = math.inf
    for r in range(1, len(p) + 1):
        for subset in itertools.combinations(range(len(p)), r):
            if sum(p[k] for k in subset) >= 1.0 - eps - 1e-12:
                best = min(best, sum(q[k] for k in subset))
    return -math.log2(best)


def _dmax_linprog(ps: np.ndarray, qs: np.ndarray, eps: float) -> np.ndarray:
    """d_max_eps in bits of each row pair (p, q) of ``ps``, ``qs`` (one
    alphabet size d), from one block-diagonal LP (see the module docstring).

    Block k has the variables p'_0..d-1, u_0..d-1 and t of instance k, with
    p' <= t q, |p' - p| <= u, sum u <= 2 eps and sum p' = 1; its smallest
    feasible t is the smallest ratio cap.
    """
    k, d = ps.shape
    width = 2 * d + 1
    eye, zero = np.eye(d), np.zeros((d, d))
    blocks = [np.block([[eye, zero, -q[:, None]],
                        [eye, -eye, np.zeros((d, 1))],
                        [-eye, -eye, np.zeros((d, 1))],
                        [np.zeros(d), np.ones(d), 0.0]]) for q in qs]
    b_ub = np.column_stack([np.zeros((k, d)), ps, -ps, np.full(k, 2.0 * eps)])
    cost = np.zeros((k, width))
    cost[:, -1] = 1.0
    a_eq = np.concatenate([np.ones(d), np.zeros(d + 1)])[None, :]
    res = linprog(cost.ravel(), A_ub=block_diag(blocks, format="csr"),
                  b_ub=b_ub.ravel(), A_eq=block_diag([a_eq] * k, format="csr"),
                  b_eq=np.ones(k),
                  bounds=([(0.0, None)] * (2 * d) + [(None, None)]) * k,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"d_max LP oracle failed: {res.message}")
    return np.log2(np.maximum(res.x[width - 1::width], 1.0))


def _dmax_grid(p: np.ndarray, q: np.ndarray, eps: float, resolution: float) -> float:
    # exhaustive walk of the 1-simplex for d = 2; p itself joins the grid so
    # the eps = 0 ball is never empty
    x = np.arange(0.0, 1.0 + resolution / 2, resolution)
    pp = np.vstack([np.column_stack([x, 1.0 - x]), p[None, :]])
    tv = 0.5 * np.abs(pp - p[None, :]).sum(axis=1)
    feasible = pp[tv <= eps + 1e-12]
    ratios = (feasible / q[None, :]).max(axis=1)
    return math.log2(float(ratios.min()))


def _check_single_shot():
    plan = build_plan(*_canonical_instance())
    w_ref = _canonical_reference()
    errors = [abs(consistency_work(plan, eps=0.05, n_copies=n) - w_ref)
              for n in (8, 16, 32, 64)]
    for small, large in zip(errors, errors[1:]):
        if not large < small:
            return False, f"consistency errors not strictly decreasing: {errors}"

    rng = np.random.default_rng(707)
    for i in range(500):
        dim = 2 + i % 5
        p = Distribution(rng.dirichlet(np.ones(dim)))
        q = Distribution.normalized(np.maximum(rng.dirichlet(np.ones(dim)), 1e-3))
        kl = kl_bits(p, q)
        if d_min_eps(p, q, 0.0) > kl + 1e-12:
            return False, f"d_min(.,.,0) > KL at instance {i}"
        if d_max_eps(p, q, 0.0) < kl - 1e-12:
            return False, f"d_max(.,.,0) < KL at instance {i}"

    worst_min = 0.0
    worst_grid = -math.inf
    lp_cases = {}  # (dim, eps) -> [(p, q, d_max_eps)], one LP each
    for dim in (2, 3, 4):
        for i in range(25):
            p_arr = rng.dirichlet(np.ones(dim))
            q_arr = np.maximum(rng.dirichlet(np.ones(dim)), 0.05)
            q_arr = q_arr / q_arr.sum()
            p, q = Distribution(p_arr), Distribution(q_arr)
            for eps in (0.0, 0.01, 0.1, 0.3):
                worst_min = max(worst_min, abs(
                    d_min_eps(p, q, eps) - _dmin_bruteforce(p_arr, q_arr, eps)))
                d_max = d_max_eps(p, q, eps)
                lp_cases.setdefault((dim, eps), []).append((p_arr, q_arr, d_max))
                if dim == 2:
                    gap = _dmax_grid(p_arr, q_arr, eps, 1e-4) - d_max
                    worst_grid = max(worst_grid, abs(gap))
                    # grid points are feasible candidates, so the grid value
                    # can only undercut the exact optimum by rounding
                    if gap < -1e-9:
                        return False, f"grid oracle beat the smoother by {-gap:.2e}"
    worst_max = 0.0
    for (_, eps), cases in lp_cases.items():
        ps, qs, d_max = map(np.array, zip(*cases))
        worst_max = max(worst_max,
                        float(np.abs(d_max - _dmax_linprog(ps, qs, eps)).max()))
    ok = worst_min <= 1e-12 and worst_max <= 1e-7 and worst_grid <= 5e-3
    return ok, (f"errors strictly decreasing ({errors[0]:.3f} -> {errors[-1]:.3f}); "
                f"enum gap {worst_min:.2e}; LP gap {worst_max:.2e}; "
                f"grid gap {worst_grid:.2e}")


def _random_ancilla_channel(state: BipartiteState, rng) -> BipartiteState:
    """Random channel on A only; the S marginal is untouched."""
    da = state.dim_a
    u = random_unitary(da * 2, rng)
    env = np.zeros((2, 2), dtype=complex)
    env[0, 0] = 1.0
    big = np.kron(state.rho_sa.mat, env)  # (S x A) x E ordering
    lifted = np.kron(np.eye(state.dim_s, dtype=complex), u)
    big = lifted @ big @ lifted.conj().T
    reduced = partial_trace(DensityMatrix(big), (state.dim_s * da, 2), keep=0)
    return BipartiteState(rho_sa=reduced, dim_s=state.dim_s, dim_a=da)


def _check_correlations():
    rng = np.random.default_rng(808)
    beta = 1.0
    t = Temperature(beta=beta)
    for i in range(500):
        ds, da = (2, 2) if i % 2 == 0 else (2, 3)
        state = random_bipartite_state(ds, da, rng)
        p = random_projector_set(ds, rng)
        lemma = verify_lemma1(state, p)
        if not lemma.holds:
            return False, f"Lemma 1 failed at instance {i}: {lemma}"
        delta = delta_correlation(state, p)
        if delta < -1e-10:
            return False, f"delta = {delta:.3e} < 0 at instance {i}"
        if delta > von_neumann_entropy(state.marginal_s) + 1e-10:
            return False, f"delta exceeds S(rho_S) at instance {i}"
        eta = local_project(state, p)
        marg_gap = float(np.abs(eta.marginal_a.mat - state.marginal_a.mat).max())
        if marg_gap > 1e-10:
            return False, f"ancilla marginal moved by {marg_gap:.2e}"
        h_s = random_hamiltonian(ds, rng)
        joint = global_optimal_work(state, h_s, p, t)
        system = optimal_projection_work(state.marginal_s, h_s, p, t)
        if abs(joint.work - (system.work + delta / beta)) > 1e-9:
            return False, f"work decomposition broken at instance {i}"

    worst_product = 0.0
    worst_purified = 0.0
    for i in range(100):
        ds, da = (2, 2) if i % 2 == 0 else (2, 3)
        rho_s = random_density_matrix(ds, rng)
        rho_a = random_density_matrix(da, rng)
        product = BipartiteState(
            rho_sa=DensityMatrix(np.kron(rho_s.mat, rho_a.mat)),
            dim_s=ds, dim_a=da)
        p = random_projector_set(ds, rng)
        worst_product = max(worst_product, abs(delta_correlation(product, p)))
        purified = BipartiteState(rho_sa=purify(rho_s), dim_s=ds, dim_a=ds)
        worst_purified = max(worst_purified,
                             abs(delta_correlation(purified, p)
                                 - von_neumann_entropy(rho_s)))
    if worst_product > 1e-9 or worst_purified > 1e-9:
        return False, (f"product delta {worst_product:.2e}, purification gap "
                       f"{worst_purified:.2e}")

    rho_s = random_density_matrix(2, np.random.default_rng(818))
    p = random_projector_set(2, np.random.default_rng(828))
    h_s = random_hamiltonian(2, np.random.default_rng(838))
    purified = BipartiteState(rho_sa=purify(rho_s), dim_s=2, dim_a=2)
    best = global_optimal_work(purified, h_s, p, t).work
    worst_gap = -math.inf
    for _ in range(200):
        other = _random_ancilla_channel(purified, rng)
        worst_gap = max(worst_gap,
                        global_optimal_work(other, h_s, p, t).work - best)
    ok = worst_gap <= 1e-8
    return ok, (f"decomposition, Lemma 1, bounds hold; purification beats 200 "
                f"fixed-marginal extensions by >= {-worst_gap:.2e}")


def _check_max_work_fixed_energy():
    rho, h, t = _canonical_instance()
    target = optimal_projection_work(rho, h, energy_projectors(h), t).work
    res = max_work_fixed_energy(rho, h, t)
    if abs(res.work - target) > 1e-9:
        return False, f"qubit coincidence broken: {res.work} vs {target}"

    thermal = gibbs_state(h, t)
    res_thermal = max_work_fixed_energy(thermal, h, t)
    if abs(res_thermal.lambda_star - t.beta) > 1e-6 or abs(res_thermal.work) > 1e-9:
        return False, f"thermal input should give lambda* = beta, W = 0: {res_thermal}"

    h3 = Hamiltonian(np.diag([-1.0, 0.0, 1.0]).astype(complex))
    rho3 = random_density_matrix(3, np.random.default_rng(909))
    res3 = max_work_fixed_energy(rho3, h3, Temperature(beta=1.0))
    w_proj = optimal_projection_work(rho3, h3, energy_projectors(h3),
                                     Temperature(beta=1.0)).work
    margin = res3.work - w_proj
    sigma = np.exp(-res3.lambda_star * h3.eigenvalues)
    sigma = sigma / sigma.sum()
    eta_diag = np.sort(np.real(np.diag(rho3.mat)))
    distance = float(np.abs(np.sort(sigma) - eta_diag).max())
    ok = margin > 1e-6 and distance > 1e-3
    return ok, (f"qubit coincidence to 1e-9; qutrit margin = {margin:.6f}, "
                f"|sigma_lambda* - eta| = {distance:.4f}")


_CRITERIA: tuple[tuple[str, float, Callable], ...] = (
    ("01_projection_work_identity", 10.0, _check_projection_work_identity),
    ("02_three_step_optimality", 10.0, _check_three_step_optimality),
    ("03_quasistatic_convergence", 20.0, _check_quasistatic_convergence),
    ("04_entropy_change_bound", 10.0, _check_entropy_change_bound),
    ("05_jarzynski_identity", 10.0, _check_jarzynski_identity),
    ("06_monte_carlo_soundness", 30.0, _check_monte_carlo),
    ("07_single_shot_consistency", 60.0, _check_single_shot),
    ("08_correlated_ancilla", 30.0, _check_correlations),
    ("09_max_work_fixed_energy", 5.0, _check_max_work_fixed_energy),
)


def run_criterion(name: str) -> CriterionResult:
    for cname, budget, func in _CRITERIA:
        if cname == name:
            start = time.perf_counter()
            try:
                passed, detail = func()
            except Exception as exc:  # a crash is a failure, not an abort
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if elapsed > budget:
                passed = False
                detail += f" [exceeded budget: {elapsed:.1f}s > {budget:.0f}s]"
            return CriterionResult(name, passed, detail, elapsed, budget)
    raise KeyError(name)


def criterion_names() -> tuple[str, ...]:
    return tuple(name for name, _, _ in _CRITERIA)


def _mutation_detected() -> bool:
    """Corrupt the bits/nats constant and confirm criterion 7 notices."""
    original = singleshot.LN2
    try:
        singleshot.LN2 = 0.7
        mutated = run_criterion("07_single_shot_consistency")
    finally:
        singleshot.LN2 = original
    return not mutated.passed


def run_all() -> list[CriterionResult]:
    results = [run_criterion(name) for name in criterion_names()]
    start = time.perf_counter()
    total = sum(r.elapsed for r in results)
    aggregate_ok = all(r.passed for r in results) and total < 180.0
    mutation_ok = _mutation_detected()
    elapsed = time.perf_counter() - start
    results.append(CriterionResult(
        name="10_aggregate_and_mutation",
        passed=aggregate_ok and mutation_ok,
        detail=(f"criteria 1-9 {'pass' if aggregate_ok else 'FAIL'} "
                f"in {total:.1f}s; ln2-mutation "
                f"{'detected' if mutation_ok else 'NOT detected'}"),
        elapsed=elapsed,
        budget=180.0,
    ))
    return results


def self_test(echo=print, verbose: bool = False) -> bool:
    """Run every criterion, print one PASS/FAIL line each; True iff all pass.

    ``verbose`` adds, under each line, the criterion's detail and its
    elapsed time against its budget; the PASS/FAIL lines stay the same.
    """
    results = run_all()
    for r in results:
        echo(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
        if verbose:
            echo(f"      {r.detail}")
            echo(f"      {r.elapsed:.2f} s of a {r.budget:.0f} s budget")
    ok = all(r.passed for r in results)
    echo(f"{'PASS' if ok else 'FAIL'}  acceptance suite "
         f"({sum(r.passed for r in results)}/{len(results)} criteria)")
    return ok
