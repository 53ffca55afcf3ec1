"""Local projections on a system correlated with an ancilla.

Projecting system S of a bipartite state leaves the ancilla marginal
untouched, yet an experimenter holding both parts can draw strictly more work
than from S alone. The surplus is beta^-1 times a projector-dependent
correlation measure delta(A:S), which vanishes on product states and reaches
its ceiling S(rho_S) exactly on purifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError
from .linalg import require_same_dim, shannon
from .projection import ProjectorSet, WorkReport, project
from .states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    average_energy,
    partial_trace,
    von_neumann_entropy,
)

# conditional branches below this probability contribute nothing
_BRANCH_TOL = 1e-12
# branch k's unnormalised ancilla block <phi_k| rho_SA |phi_k>, all k at once
_BRANCH_EINSUM = "ik,iajb,jk->kab"


@dataclass(frozen=True)
class BipartiteState:
    """State on S (x) A with the tensor factorisation made explicit."""

    rho_sa: DensityMatrix
    dim_s: int
    dim_a: int

    def __post_init__(self):
        if self.dim_s < 1 or self.dim_a < 1 or self.dim_s * self.dim_a != self.rho_sa.dim:
            raise DimMismatchError(
                f"BipartiteState: {self.dim_s} x {self.dim_a} does not factor "
                f"dimension {self.rho_sa.dim}"
            )

    @cached_property
    def marginal_s(self) -> DensityMatrix:
        return partial_trace(self.rho_sa, (self.dim_s, self.dim_a), keep=0)

    @cached_property
    def marginal_a(self) -> DensityMatrix:
        return partial_trace(self.rho_sa, (self.dim_s, self.dim_a), keep=1)


def _lift(p: ProjectorSet, dim_a: int) -> ProjectorSet:
    """The family {P_k (x) 1_A}: basis U (x) 1_A, cluster k = c_k * dim_a + a."""
    cols = np.arange(dim_a)
    return ProjectorSet._trusted(np.kron(p.basis, np.eye(dim_a)),
                                 tuple((c[:, None] * dim_a + cols).ravel() for c in p.clusters))


def local_project(state: BipartiteState, p: ProjectorSet) -> BipartiteState:
    """Apply sum_k (P_k (x) 1) rho (P_k (x) 1); the A marginal is unchanged."""
    require_same_dim("local_project", system=state.dim_s, projectors=p.dim)
    p.require_rank_one()
    eta = project(state.rho_sa, _lift(p, state.dim_a))
    return BipartiteState(rho_sa=eta, dim_s=state.dim_s, dim_a=state.dim_a)


# numpy's optimize=True path per shape; a search per call cost ~40% of a call at d <= 4
@cache
def _branch_path(dim_s: int, dim_a: int) -> list:
    phi, r = np.empty((dim_s, dim_s)), np.empty((dim_s, dim_a) * 2)
    return np.einsum_path(_BRANCH_EINSUM, phi, r, phi, optimize=True)[0]


def _conditional_entropy(state: BipartiteState, p: ProjectorSet) -> float:
    """sum_k p_k S(eta_A_k) over the branches with p_k > 1e-12, in nats.

    One contraction and one batched eigvalsh give every branch; the value is
    kept on ``state`` as (p, value) for the next call with this same ``p``.
    """
    memo = state.__dict__.get("_conditional_entropy")
    if memo is not None and memo[0] is p:
        return memo[1]
    phi = p.basis_vectors()
    r = state.rho_sa.mat.reshape(state.dim_s, state.dim_a, state.dim_s, state.dim_a)
    blocks = np.einsum(_BRANCH_EINSUM, phi.conj(), r, phi,
                       optimize=_branch_path(state.dim_s, state.dim_a))
    weights = np.einsum("kaa->k", blocks).real
    spectra = np.maximum(
        np.linalg.eigvalsh((blocks + blocks.conj().transpose(0, 2, 1)) / 2.0), 0.0)
    total = 0.0
    for pk, w in zip(weights.tolist(), spectra):
        if pk > _BRANCH_TOL:
            total += pk * shannon(w / pk)
    state.__dict__["_conditional_entropy"] = (p, total)
    return total


def delta_correlation(state: BipartiteState, p: ProjectorSet) -> float:
    """Correlation measure delta(A:S) for the given projector family, in nats.

    delta = S(rho_S) - S(rho_SA) + sum_k p_k S(eta_A_k), with eta_A_k the
    ancilla state conditioned on branch k. Nonnegative; zero on product
    states; equal to S(rho_S) on purifications. Branches with p_k <= 1e-12
    are skipped (their contribution vanishes in the limit). No minimisation
    over bases is performed.
    """
    require_same_dim("delta_correlation", system=state.dim_s, projectors=p.dim)
    return (von_neumann_entropy(state.marginal_s)
            - von_neumann_entropy(state.rho_sa) + _conditional_entropy(state, p))


def global_optimal_work(state: BipartiteState, h_s: Hamiltonian, p: ProjectorSet,
                        t: Temperature) -> WorkReport:
    """Optimal work from realising the local projection on S globally.

    work = dS_SA / beta - dU with dS_SA the entropy change of the joint state
    and dU the energy change of the system alone (the ancilla term of an
    additive Hamiltonian cannot move since its marginal is fixed). Exceeds
    the system-only work by exactly delta(A:S) / beta.
    """
    require_same_dim("global_optimal_work", system=state.dim_s, H=h_s.dim)
    eta = local_project(state, p)
    d_s = von_neumann_entropy(eta.rho_sa) - von_neumann_entropy(state.rho_sa)
    d_u = (average_energy(eta.marginal_s, h_s)
           - average_energy(state.marginal_s, h_s))
    heat = d_s / t.beta
    return WorkReport(work=heat - d_u, entropy_change=d_s,
                      energy_change=d_u, heat_absorbed=heat)


class Lemma1Result(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def verify_lemma1(state: BipartiteState, p: ProjectorSet) -> Lemma1Result:
    """Check S(rho_SA) >= sum_k p_k S(eta_A_k) for rank-1 projectors on S."""
    require_same_dim("verify_lemma1", system=state.dim_s, projectors=p.dim)
    lhs = von_neumann_entropy(state.rho_sa)
    rhs = _conditional_entropy(state, p)
    return Lemma1Result(lhs=lhs, rhs=rhs, holds=lhs >= rhs - 1e-10)
