"""Two-point-measurement work statistics and measurement back-action.

A system thermal for H0 is measured in the H0 eigenbasis, driven by a unitary
V, and measured again in the Htau eigenbasis. The joint outcome table fixes
everything observable: the exponentiated-work average obeys the Jarzynski
identity exactly, the linear average reproduces the state-side energy change,
and Monte-Carlo trajectory sampling reproduces both within standard errors.
The final unselective measurement itself removes coherences, which an optimal
implementation converts into extra work; :func:`projection_heat` quantifies
that correction.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import NonFiniteError, NotUnitaryError, ParameterRangeError, StateValidationError
from .linalg import (as_matrix, is_unitary, log_partition, require_same_dim, require_types,
                     thermal)
from .projection import energy_projectors, project
from .states import DensityMatrix, Hamiltonian, Temperature, von_neumann_entropy


@dataclass(frozen=True)
class TransitionTable:
    """Joint probabilities p[m][n] of energy jumps E0_n -> Etau_m of a system
    thermal for ``h0`` at ``temperature`` and driven by the unitary ``v``,
    derived in full from those inputs.

    p[m][n] = tr[P_m V P_n rho_0 P_n V^dag P_m] with rho_0 the Gibbs state of
    h0 and P the level projectors: with B0, Btau the eigenbases, the thermal
    weight of level n times ``mass[m][n]``, the sum of |Btau^dag V B0|^2
    over the eigenvectors of levels m and n, so nonnegativity is exact.
    ``e0`` and ``etau`` are the level energies, ``g0`` the initial
    degeneracies; ``log_probs`` holds ln p[m][n] (-inf for an impossible
    jump, mass 0, or where beta E0_n overflows), finite also where p
    underflows to 0. ``v`` is not kept, and every derived field is read-only.

    Checked are the input types (``StateValidationError``) and V's entries,
    shape and unitarity. The unit sum and the column marginals g0_n
    exp(-beta (E0_n - F0)) are then off by at most ||V^dag V - 1|| <=
    ``DEFAULT_TOL`` sqrt(d), the defect ``is_unitary`` accepts, and are not
    checked again; exp(log_probs) must agree with probs to 1e-12.
    """

    h0: Hamiltonian
    htau: Hamiltonian
    v: InitVar[np.ndarray]
    temperature: Temperature
    probs: np.ndarray = field(init=False)
    log_probs: np.ndarray = field(init=False)
    e0: np.ndarray = field(init=False)
    etau: np.ndarray = field(init=False)
    beta: float = field(init=False)
    g0: np.ndarray = field(init=False)
    mass: np.ndarray = field(init=False)

    def __post_init__(self, v):
        require_types("TransitionTable", self, h0=Hamiltonian, htau=Hamiltonian,
                      temperature=Temperature)
        h0, htau = self.h0, self.htau
        vm = as_matrix(v)
        require_same_dim("transition_table", H0=h0.mat.shape, Htau=htau.mat.shape, V=vm.shape)
        if not is_unitary(vm):
            raise NotUnitaryError("transition_table: V is not unitary")
        beta = self.temperature.beta
        e0 = h0.energies
        g0 = h0.degeneracies.astype(float)
        weights = thermal(e0, beta, g0) / g0  # per-eigenstate thermal weight
        # ln of that weight, finite where the weight itself underflows; a
        # beta E0 that overflows is -inf, a weight of 0, as in thermal
        with np.errstate(over="ignore"):
            log_weights = -beta * e0 - log_partition(e0, beta, g0)
        amp = htau.eigenvectors.conj().T @ vm @ h0.eigenvectors
        # clusters are contiguous runs of the ascending spectrum, so each level's
        # rows (columns) are summed by one reduceat segment
        mass = np.add.reduceat(np.abs(amp) ** 2, [c[0] for c in htau.clusters], axis=0)
        mass = np.add.reduceat(mass, [c[0] for c in h0.clusters], axis=1)
        with np.errstate(divide="ignore"):
            log_probs = np.log(mass) + log_weights
        probs = mass * weights
        # log_partition rounds at the magnitude beta max|E0|, which a large
        # energy offset can carry past this agreement
        if not np.abs(np.exp(log_probs) - probs).max() <= 1e-12:
            raise StateValidationError("TransitionTable: log_probs disagree with probs")
        object.__setattr__(self, "beta", beta)
        for name, arr in (("probs", probs), ("log_probs", log_probs), ("e0", e0),
                          ("etau", htau.energies), ("g0", g0), ("mass", mass)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def delta_e(self) -> np.ndarray:
        """Energy jumps Etau_m - E0_n, same shape as probs."""
        return self.etau[:, None] - self.e0[None, :]


def transition_table(h0: Hamiltonian, htau: Hamiltonian, v,
                     t: Temperature) -> TransitionTable:
    """The two-point-measurement :class:`TransitionTable` of a thermal start."""
    return TransitionTable(h0, htau, v, t)


def jarzynski_average(table: TransitionTable) -> float:
    """<e^(beta W)> = sum_mn e^(-beta (Etau_m - E0_n)) p[m][n].

    Equals e^(-beta dF) identically, with dF the equilibrium free-energy
    difference of the two Hamiltonians, for every unitary. Each term is
    exp(ln p - beta dE), so a jump whose probability underflows still
    counts and no e^(-beta dE) overflows against a zero probability. Where
    ln p = -inf meets beta dE = -inf the term is mass e^(-beta Etau_m) / Z0,
    in which no infinity meets another: exactly 0 for an impossible jump
    (mass 0), and the jump's true share where only beta E0_n overflowed. A
    sum beyond the largest double raises ``NonFiniteError``.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = table.log_probs - table.beta * table.delta_e
        m, n = np.nonzero(np.isnan(x))  # -inf - (-inf)
        if m.size:
            mass = table.mass[m, n]
            x[m, n] = np.where(mass > 0, np.log(mass) - table.beta * table.etau[m]
                               - log_partition(table.e0, table.beta, table.g0), -math.inf)
        total = float(np.exp(x).sum())
    if not math.isfinite(total):
        raise NonFiniteError("jarzynski_average: the left side <e^(beta W)> overflows a double")
    return total


def average_unitary_work(table: TransitionTable) -> float:
    """<W_unitary> = -sum_mn (Etau_m - E0_n) p[m][n] = U(rho_0) - U(rho_tau)."""
    return float(-(table.delta_e * table.probs).sum())


def projection_heat(rho_tau: DensityMatrix, htau: Hamiltonian,
                    t: Temperature) -> float:
    """Heat absorbed by an optimal realisation of the final measurement.

    Removing the coherences of rho_tau in the htau eigenbasis raises the
    entropy but not the energy, so an optimal process absorbs
    heat = (S(eta) - S(rho_tau)) / beta and pays it all out as extra work on
    top of the unitary work. Zero exactly when rho_tau commutes with htau; a
    plain decohering implementation realises zero instead.
    """
    require_same_dim("projection_heat", state=rho_tau.dim, H=htau.dim)
    eta = project(rho_tau, energy_projectors(htau))
    return (von_neumann_entropy(eta) - von_neumann_entropy(rho_tau)) / t.beta


# uniforms are drawn and sorted this many at a time: PCG64 yields the same
# stream in chunks as in one call, and per-chunk counts add up, so the counts
# are those of the whole array without holding n_samples doubles at once
_SAMPLE_CHUNK = 65536


def _cell_counts(probs: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draws of ``n`` sorted PCG64 uniforms for ``seed`` landing in each cell
    of the distribution ``probs``, by inverse CDF."""
    cdf = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    # below[k]: draws u_i < cdf[k]; draw i lands in cell >= k iff cdf[k-1] <= u_i
    below = np.zeros(cdf.size - 1, dtype=np.intp)
    for start in range(0, n, _SAMPLE_CHUNK):
        u = rng.random(min(_SAMPLE_CHUNK, n - start))
        u.sort()
        below += np.searchsorted(u, cdf[:-1], side="left")
    return np.diff(below, prepend=0, append=n)


@dataclass(frozen=True)
class TrajectoryStats:
    """Empirical statistics of sampled two-point-measurement trajectories."""

    n_samples: int
    seed: int
    exp_beta_w_estimate: float
    exp_beta_w_std_error: float
    work_estimate: float
    work_std_error: float
    delta_e_values: np.ndarray
    delta_e_counts: np.ndarray

    def __post_init__(self):
        self.delta_e_values.setflags(write=False)
        self.delta_e_counts.setflags(write=False)


def sample_trajectories(table: TransitionTable, n_samples: int,
                        seed: int) -> TrajectoryStats:
    """Draw (n, m) jumps from the joint table with a seeded generator.

    Sampling is inverse-CDF over the flattened table: draw i lands in the
    first cell whose cumulative probability exceeds its uniform u_i (the last
    cell also takes any u_i at or above the final cumulative sum). The
    uniforms come from numpy's PCG64 stream for ``seed`` and are sorted in
    chunks of 65,536, so one binary search per cell boundary and chunk gives
    the exact count of draws in every cell; no per-sample array beyond one
    chunk of uniforms is built. The same (table, n_samples, seed) gives the
    same counts and bit-identical statistics on the same build. Means and
    standard errors (sample standard deviation, ddof=1) are count-weighted
    sums over the occupied cells.
    """
    n = int(n_samples)
    if n < 1:
        raise ParameterRangeError(f"n_samples must be >= 1, got {n_samples!r}")
    counts = _cell_counts(table.probs.ravel(), n, seed)
    de_cells = table.delta_e.ravel()
    hit = counts > 0  # empty cells may hold an overflowing e^(beta W)
    c = counts[hit].astype(float)
    w = -de_cells[hit]
    with np.errstate(over="ignore"):
        x = np.exp(table.beta * w)  # a beta W that overflows to -inf is a weight of 0

    def mean_se(v):
        with np.errstate(over="ignore"):
            mean = float(c @ v) / n
            if n == 1:
                return mean, 0.0
            if not math.isfinite(mean):  # cannot enter a report, nor can its spread
                return mean, math.inf
            dev = v - mean
            ss = float(c @ dev ** 2)
        if math.isfinite(ss):
            return mean, math.sqrt(ss / (n - 1)) / math.sqrt(n)
        # squares beyond a double: sum them in units of the largest deviation
        top = float(np.abs(dev).max())
        return mean, top * math.sqrt(float(c @ (dev / top) ** 2) / (n - 1)) / math.sqrt(n)

    x_mean, x_se = mean_se(x)
    w_mean, w_se = mean_se(w)
    values, inverse = np.unique(de_cells, return_inverse=True)
    merged = np.zeros(values.size, dtype=np.int64)
    np.add.at(merged, inverse, counts)

    return TrajectoryStats(
        n_samples=n,
        seed=int(seed),
        exp_beta_w_estimate=x_mean,
        exp_beta_w_std_error=x_se,
        work_estimate=w_mean,
        work_std_error=w_se,
        delta_e_values=values,
        delta_e_counts=merged,
    )
