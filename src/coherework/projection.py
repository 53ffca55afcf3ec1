"""Projection channels and the work they can yield.

The central map is rho -> sum_k P_k rho P_k for a complete family of mutually
orthogonal projectors. Removing coherences this way can extract work from a
heat bath at temperature T; the functions here compute the optimal average
work, the entropy-change lower bound that controls it, and the maximum work
at fixed average energy.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    EnergyOutOfRangeError,
    NonFiniteError,
    NotUnitaryError,
    RankError,
    StateValidationError,
)
from .linalg import as_matrix, hs_norm, is_unitary, log_partition, require_same_dim, thermal
from .states import DensityMatrix, Hamiltonian, Temperature, average_energy, von_neumann_entropy


class ProjectorSet:
    """Complete family of mutually orthogonal projectors {P_k}.

    Stored as a unitary ``basis`` and ``clusters``, a partition of its column
    indices: P_k = B_k B_k^dag with B_k = basis[:, clusters[k]], so validation
    is one unitarity check within ``DEFAULT_TOL`` plus a check that the
    clusters split 0..d-1 into nonempty groups. Rank-1 families (one per
    basis vector) are required by the entropy bound and the correlated-system
    machinery; general ranks appear as eigenprojectors of degenerate
    Hamiltonians.
    """

    __slots__ = ("basis", "clusters", "dim", "ranks", "mask")

    def __init__(self, basis, clusters: Sequence):
        u = as_matrix(basis)
        if not is_unitary(u):
            raise NotUnitaryError("ProjectorSet: basis matrix not unitary")
        d = u.shape[0]
        cl = tuple(np.asarray(c).reshape(-1) for c in clusters)
        # an entry that is not an integer (a bool is not one) names no column
        if (not cl or min(c.size for c in cl) == 0 or any(c.dtype.kind not in "iu" for c in cl)
                or not np.array_equal(np.sort(np.concatenate(cl)), np.arange(d))):
            raise StateValidationError(
                f"ProjectorSet: clusters must partition the columns 0..{d - 1} "
                f"into nonempty groups, got {[c.tolist() for c in cl]}"
            )
        self._fill(u.copy(), tuple(c.astype(np.intp) for c in cl))

    @classmethod
    def _trusted(cls, basis: np.ndarray, clusters: tuple[np.ndarray, ...]) -> "ProjectorSet":
        """Family from a complex unitary the library built and 1-d integer
        index arrays that partition its columns, both taken over unchecked
        and made read-only."""
        self = cls.__new__(cls)
        self._fill(basis, clusters)
        return self

    def _fill(self, basis: np.ndarray, clusters: tuple[np.ndarray, ...]):
        """Store ``basis`` and ``clusters`` read-only with the same-projector mask."""
        d = basis.shape[0]
        owner = np.empty(d, dtype=np.intp)
        for k, c in enumerate(clusters):
            c.setflags(write=False)
            owner[c] = k
        # mask[i, j] is True when columns i and j belong to the same projector
        self.mask = owner[:, None] == owner[None, :]
        self.mask.setflags(write=False)
        basis.setflags(write=False)
        self.basis = basis
        self.clusters = clusters
        self.dim = d
        self.ranks = tuple(c.size for c in clusters)

    @classmethod
    def from_basis(cls, basis) -> "ProjectorSet":
        """Rank-1 projectors onto the columns of a unitary matrix."""
        u = as_matrix(basis)
        return cls(u, np.arange(u.shape[1])[:, None])

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """The d x d projector matrices B_k B_k^dag, built on demand."""
        return tuple(self.basis[:, c] @ self.basis[:, c].conj().T for c in self.clusters)

    @property
    def is_rank_one(self) -> bool:
        return all(r == 1 for r in self.ranks)

    def require_rank_one(self):
        if not self.is_rank_one:
            raise RankError(f"projector set has ranks {self.ranks}, all must be 1")

    def basis_vectors(self) -> np.ndarray:
        """Columns phi_k with P_k = |phi_k><phi_k| (rank-1 sets only)."""
        self.require_rank_one()
        return self.basis[:, np.concatenate(self.clusters)]

    def __len__(self):
        return len(self.clusters)

    def __repr__(self):
        return f"ProjectorSet(dim={self.dim}, ranks={self.ranks})"


def energy_projectors(h: Hamiltonian) -> ProjectorSet:
    """Eigenprojector family of a Hamiltonian, one member per clustered level."""
    return ProjectorSet._trusted(h.eigenvectors, h.clusters)


@dataclass(frozen=True)
class WorkReport:
    """Average energy bookkeeping of one process or protocol step.

    Sign convention: positive ``work`` is drawn out of the system into the
    controlled energy sources; ``heat_absorbed`` flows from the bath into the
    system. The constructor enforces the first law energy_change =
    heat_absorbed - work to 1e-10 * max(scale, |work|, |heat|, |energy
    change|), so changing the units of H and T together trips nothing.
    ``scale``, not stored, is the size of the energies the terms are
    differences of: terms that cancel to rounding noise of those energies
    still pass. A NaN or infinite term raises ``NonFiniteError`` naming the
    term: the balance cannot be checked, which is not the same as being
    broken.
    """

    work: float
    entropy_change: float
    energy_change: float
    heat_absorbed: float
    scale: InitVar[float] = 0.0

    def __post_init__(self, scale: float):
        work, heat, d_u = self.work, self.heat_absorbed, self.energy_change
        for name, value in (("work", work), ("heat_absorbed", heat), ("energy_change", d_u)):
            if not math.isfinite(value):
                raise NonFiniteError(f"WorkReport cannot check the first law: {name} is {value!r}")
        gap = abs(d_u - (heat - work))
        if not gap <= 1e-10 * max(scale, abs(work), abs(heat), abs(d_u)):
            raise ConsistencyError(f"WorkReport violates the first law by {gap:.3e}")


# dataclass leaves an InitVar's default on the class, where every report would
# read it as a stored scale of 0.0; the default stays in __init__'s signature
del WorkReport.scale


def project(rho: DensityMatrix, p: ProjectorSet) -> DensityMatrix:
    """Unselective measurement channel: rho -> sum_k P_k rho P_k.

    Computed in the family's basis as U (M o U^dag rho U) U^dag, where M is
    the same-cluster mask and o the entrywise product.
    """
    require_same_dim("project", state=rho.dim, projectors=p.dim)
    u = p.basis
    return DensityMatrix._trusted(u @ (p.mask * (u.conj().T @ rho.mat @ u)) @ u.conj().T)


def optimal_projection_work(rho: DensityMatrix, h: Hamiltonian, p: ProjectorSet,
                            t: Temperature) -> WorkReport:
    """Optimal average work for realising the projection of rho thermally.

    W = dS / beta - dU, with dS the entropy gained by the projection and dU
    its average-energy change; the saturated second law fixes the absorbed
    heat at dS / beta. When the projectors are the eigenprojectors of ``h``
    the energy term vanishes and W reduces to T dS.
    """
    require_same_dim("optimal_projection_work", state=rho.dim, H=h.dim, projectors=p.dim)
    eta = project(rho, p)
    d_s = von_neumann_entropy(eta) - von_neumann_entropy(rho)
    d_u = average_energy(eta, h) - average_energy(rho, h)
    heat = d_s / t.beta
    return WorkReport(work=heat - d_u, entropy_change=d_s,
                      energy_change=d_u, heat_absorbed=heat)


def overlap_matrix(rho: DensityMatrix, p: ProjectorSet) -> np.ndarray:
    """Doubly stochastic overlap matrix M_kl = |<phi_k | l>|^2.

    Rows follow the projector family, columns the eigenbasis of rho in its
    deterministic ascending-eigenvalue order. For a
    degenerate rho the bound below depends on this basis choice.
    """
    require_same_dim("overlap_matrix", state=rho.dim, projectors=p.dim)
    phi = p.basis_vectors()
    return np.abs(phi.conj().T @ rho.eigenvectors) ** 2


def projection_angle_factor(m: np.ndarray) -> float:
    """Second-smallest eigenvalue of 1 - M^T M, clipped into [0, 1].

    Zero when M is a permutation (bases coincide), one for mutually unbiased
    bases. "Second smallest" is index 1 of the ascending spectrum, so a fully
    degenerate zero spectrum degrades the bound to zero rather than failing.
    A one-level system has one basis, so its factor is zero.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[0] < 2:
        return 0.0
    a = np.eye(m.shape[0]) - m.T @ m
    w = np.linalg.eigvalsh((a + a.T) / 2.0)
    return float(min(max(w[1], 0.0), 1.0))


def entropy_change_bound(rho: DensityMatrix, p: ProjectorSet) -> float:
    """Lower bound on the entropy gained by projecting rho in a rank-1 basis.

    bound = 1/2 ||rho - 1/d||_2^2 * dA, where dA is
    :func:`projection_angle_factor` of the overlap matrix between the
    projector basis and rho's eigenbasis. Always at most the actual entropy
    change. For a qubit this reduces to |s|^2 sin^2(theta) / 4 with s the
    Bloch vector and theta the angle between the bases.
    """
    m = overlap_matrix(rho, p)
    purity = hs_norm(rho.mat - np.eye(rho.dim) / rho.dim) ** 2
    return 0.5 * purity * projection_angle_factor(m)


class MaxWorkResult(NamedTuple):
    lambda_star: float
    work: float


def max_work_fixed_energy(rho: DensityMatrix, h: Hamiltonian,
                          t: Temperature) -> MaxWorkResult:
    """Maximum average work extractable at fixed average energy U = tr[rho H].

    The optimal final state is the Gibbs state sigma_lambda matching U; the
    matching lambda* is found by bracketed bisection of tr[sigma_lambda H] - U
    (monotone decreasing in lambda) down to |f| < 1e-12 (E_max - E_min), and
    the work is (lambda* U + ln Z(lambda*) - S(rho)) / beta. For qubits
    sigma_lambda* coincides with the energy-basis projection of rho, so this
    equals the optimal projection work; in higher dimensions it is generally
    larger.
    """
    u = average_energy(rho, h)
    w = h.eigenvalues
    if not (w[0] < u < w[-1]):
        raise EnergyOutOfRangeError(
            f"average energy {u!r} not strictly inside the spectral interval "
            f"({w[0]!r}, {w[-1]!r})"
        )

    def f(lam: float) -> float:
        return float(thermal(w, lam) @ w) - u

    # lambda is an inverse energy: bracket and stop on the spread of the
    # spectrum, so rescaling or shifting H leaves the iterates in proportion
    spread = float(w[-1] - w[0])
    lo, hi = -64.0 / spread, 64.0 / spread
    # f is decreasing: f(-inf) = E_max - U > 0, f(+inf) = E_min - U < 0
    while f(lo) < 0.0:
        lo *= 2.0
    while f(hi) > 0.0:
        hi *= 2.0
    f_mid = math.inf
    mid = 0.5 * (lo + hi)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < 1e-12 * spread or hi - lo < 1e-15 * max(abs(mid), 1.0 / spread):
            break
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    lam = mid
    work = (lam * u + log_partition(w, lam) - von_neumann_entropy(rho)) / t.beta
    return MaxWorkResult(lambda_star=lam, work=work)
