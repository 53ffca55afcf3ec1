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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError, NotUnitaryError, StateValidationError
from .linalg import as_matrix, is_unitary
from .projection import energy_projectors, project
from .states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class TransitionTable:
    """Joint probabilities p[m][n] of energy jumps E0_n -> Etau_m.

    ``e0``/``etau`` are the clustered level energies, ``g0`` the initial level
    degeneracies. Entries are nonnegative and sum to 1; column marginals are
    the Boltzmann weights g0_n exp(-beta (E0_n - F0)), both to 1e-10, enforced
    at construction.
    """

    probs: np.ndarray
    e0: np.ndarray
    etau: np.ndarray
    beta: float
    g0: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        e0 = np.asarray(self.e0, dtype=float)
        etau = np.asarray(self.etau, dtype=float)
        g0 = np.asarray(self.g0, dtype=float)
        if probs.shape != (etau.size, e0.size):
            raise DimMismatchError(
                f"TransitionTable: probs shape {probs.shape} != "
                f"({etau.size}, {e0.size})"
            )
        if probs.min() < -1e-12:
            raise StateValidationError(
                f"TransitionTable: negative probability {probs.min()!r}"
            )
        if abs(probs.sum() - 1.0) > 1e-10:
            raise StateValidationError(
                f"TransitionTable: probabilities sum to {probs.sum()!r}"
            )
        boltzmann = g0 * np.exp(-self.beta * (e0 - _free_energy(e0, g0, self.beta)))
        gap = float(np.abs(probs.sum(axis=0) - boltzmann).max())
        if gap > 1e-10:
            raise StateValidationError(
                f"TransitionTable: column marginals deviate from thermal "
                f"weights by {gap:.3e}"
            )
        for arr in (probs, e0, etau, g0):
            arr.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "etau", etau)
        object.__setattr__(self, "g0", g0)

    @property
    def delta_e(self) -> np.ndarray:
        """Energy jumps Etau_m - E0_n, same shape as probs."""
        return self.etau[:, None] - self.e0[None, :]


def _free_energy(e: np.ndarray, g: np.ndarray, beta: float) -> float:
    x = -beta * (e - e.min())
    return float(e.min() - math.log((g * np.exp(x)).sum()) / beta)


def transition_table(h0: Hamiltonian, htau: Hamiltonian, v,
                     t: Temperature) -> TransitionTable:
    """Joint two-point-measurement table for a thermal start.

    p[m][n] = tr[P_m V P_n rho_0 P_n V^dag P_m] with rho_0 the Gibbs state of
    h0; degenerate levels enter through their cluster projectors, which
    generalises the rank-1 formula verbatim. With B0, Btau the eigenbases,
    p[m][n] is the thermal weight of level n times the sum of
    |Btau^dag V B0|^2 over the eigenvectors of levels m and n, so
    nonnegativity is exact.
    """
    vm = as_matrix(v)
    if h0.dim != htau.dim or vm.shape != (h0.dim, h0.dim):
        raise DimMismatchError(
            f"transition_table: dimensions differ "
            f"(H0 {h0.dim}, Htau {htau.dim}, V {vm.shape})"
        )
    if not is_unitary(vm, 1e-10):
        raise NotUnitaryError("transition_table: V is not unitary")
    beta = t.beta
    e0 = h0.energies
    g0 = h0.degeneracies.astype(float)
    f0 = _free_energy(e0, g0, beta)
    weights = np.exp(-beta * (e0 - f0))  # per-eigenstate thermal weight
    amp = htau.spectral.eigenvectors.conj().T @ vm @ h0.spectral.eigenvectors
    # clusters are contiguous runs of the ascending spectrum, so each level's
    # rows (columns) are summed by one reduceat segment
    probs = np.add.reduceat(np.abs(amp) ** 2, [c[0] for c in htau.clusters], axis=0)
    probs = np.add.reduceat(probs, [c[0] for c in h0.clusters], axis=1) * weights
    return TransitionTable(probs=probs, e0=e0, etau=htau.energies,
                           beta=beta, g0=g0)


def jarzynski_average(table: TransitionTable) -> float:
    """<e^(beta W)> = sum_mn e^(-beta (Etau_m - E0_n)) p[m][n].

    Equals e^(-beta dF) identically, with dF the equilibrium free-energy
    difference of the two Hamiltonians, for every unitary.
    """
    return float((np.exp(-table.beta * table.delta_e) * table.probs).sum())


def average_unitary_work(table: TransitionTable) -> float:
    """<W_unitary> = -sum_mn (Etau_m - E0_n) p[m][n] = U(rho_0) - U(rho_tau)."""
    return float(-(table.delta_e * table.probs).sum())


class ProjectionHeat(NamedTuple):
    heat: float
    extra_work: float


def projection_heat(rho_tau: DensityMatrix, htau: Hamiltonian,
                    t: Temperature) -> ProjectionHeat:
    """Heat absorbed by an optimal realisation of the final measurement.

    Removing the coherences of rho_tau in the htau eigenbasis raises the
    entropy but not the energy, so an optimal process absorbs
    heat = (S(eta) - S(rho_tau)) / beta and pays it all out as extra work on
    top of the unitary work. Zero exactly when rho_tau commutes with htau; a
    plain decohering implementation realises zero instead.
    """
    if rho_tau.dim != htau.dim:
        raise DimMismatchError(
            f"projection_heat: state dimension {rho_tau.dim} != "
            f"Hamiltonian dimension {htau.dim}"
        )
    eta = project(rho_tau, energy_projectors(htau))
    heat = (von_neumann_entropy(eta) - von_neumann_entropy(rho_tau)) / t.beta
    return ProjectionHeat(heat=heat, extra_work=heat)


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
    uniforms come from numpy's PCG64 stream for ``seed`` and are sorted, so
    one binary search per cell boundary gives the exact count of draws in
    every cell; no per-sample array beyond the uniforms is built. The same
    (table, n_samples, seed) gives the same counts and bit-identical
    statistics on the same build. Means and standard errors (sample standard
    deviation, ddof=1) are count-weighted sums over the occupied cells.
    """
    n = int(n_samples)
    if n < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    cdf = np.cumsum(table.probs.ravel())
    u = np.random.default_rng(seed).random(n)
    u.sort()
    # draw i lands in cell >= k iff cdf[k-1] <= u_i
    counts = np.diff(np.searchsorted(u, cdf[:-1], side="left"), prepend=0, append=n)

    de_cells = table.delta_e.ravel()
    hit = counts > 0  # empty cells may hold an overflowing e^(beta W)
    c = counts[hit].astype(float)
    w = -de_cells[hit]
    x = np.exp(table.beta * w)

    def mean_se(v):
        mean = float(c @ v) / n
        if n == 1:
            return mean, 0.0
        return mean, math.sqrt(float(c @ (v - mean) ** 2) / (n - 1)) / math.sqrt(n)

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
