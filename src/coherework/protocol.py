"""Three-step optimal projection protocol: rotate, isotherm, quench.

The protocol drives (rho, H) -> (eta, H), where eta is rho with its
coherences in the energy eigenbasis removed, through

1. a unitary rotation into the energy eigenbasis while the Hamiltonian jumps
   to H1, chosen so the rotated state is thermal,
2. a quasi-static isothermal drag of the eigenvalues from H1 to H2, whose
   thermal state is eta,
3. a quench back to the original H.

Steps 1 and 3 are isolated (work only); all heat flows in step 2. The exact
step works sum to the optimal projection work, and the discretised isotherm
converges to it at rate O(1/steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ClampRequiredError, NotUnitaryError, StateValidationError
from .linalg import as_matrix, hs_norm, is_unitary, shannon, thermal
from .states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    average_energy,
    check_first_law,
)

PLAN_TOL = 1e-8

# an eigenvalue at or below this is "zero" for clamping purposes
_ZERO_EIGENVALUE = 1e-14


@dataclass(frozen=True)
class LedgerEntry:
    """One protocol step: average work drawn, heat absorbed, and the changes."""

    label: str
    work: float
    heat_absorbed: float
    energy_change: float
    entropy_change: float


@dataclass(frozen=True)
class WorkLedger:
    """Ordered per-step energy bookkeeping with summed totals.

    Every entry satisfies the first law (energy_change = heat_absorbed - work)
    as :func:`check_first_law` checks it; isolated steps carry exactly zero
    heat by construction.
    """

    entries: tuple[LedgerEntry, ...]
    purity_clamp: float | None = None

    def __post_init__(self):
        for e in self.entries:
            check_first_law(f"ledger entry {e.label!r}", e.work, e.heat_absorbed,
                            e.energy_change)

    @property
    def totals(self) -> LedgerEntry:
        return LedgerEntry(
            label="total",
            work=sum(e.work for e in self.entries),
            heat_absorbed=sum(e.heat_absorbed for e in self.entries),
            energy_change=sum(e.energy_change for e in self.entries),
            entropy_change=sum(e.entropy_change for e in self.entries),
        )


@dataclass(frozen=True)
class ProtocolPlan:
    """Fully specified three-step protocol.

    ``basis`` holds the shared eigenbasis (columns) in which rho1, eta, and
    all three Hamiltonians are diagonal; ``e0/e1/e2`` are their eigenvalues in
    that basis, ``populations`` the spectrum of the rotated state, and
    ``target_populations`` the spectrum of eta. ``rho0`` is the (possibly
    clamped) initial state the plan actually drives. The auxiliary
    Hamiltonians exist only as ``e1``/``e2``: H_k = basis diag(e_k) basis^dag.

    Construction checks that ``v`` and ``basis`` are unitary, that rho1 and
    eta are the thermal states of H1 and H2, and that H0, H1 and H2 commute.
    """

    rho0: DensityMatrix
    h0: Hamiltonian
    v: np.ndarray
    temperature: Temperature
    basis: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    populations: np.ndarray
    target_populations: np.ndarray
    purity_clamp: float
    pairing: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for arr in (self.v, self.basis, self.e0, self.e1, self.e2,
                    self.populations, self.target_populations):
            arr.setflags(write=False)
        if not is_unitary(self.v, 1e-10):
            raise NotUnitaryError("ProtocolPlan: step-1 rotation is not unitary")
        if not is_unitary(self.basis, 1e-10):
            raise NotUnitaryError("ProtocolPlan: shared eigenbasis is not unitary")
        basis, basis_dag = self.basis, self.basis.conj().T
        beta = self.temperature.beta
        # an infinite gap (vanishing beta) raises NonFiniteError here
        h1 = as_matrix((basis * self.e1) @ basis_dag)
        h2 = as_matrix((basis * self.e2) @ basis_dag)
        rho1 = self.v @ self.rho0.mat @ self.v.conj().T
        gap1 = hs_norm((basis * thermal(self.e1, beta)) @ basis_dag - rho1)
        if gap1 > PLAN_TOL:
            raise StateValidationError(
                f"ProtocolPlan: rotated state is not thermal for H1 "
                f"(distance {gap1:.3e})"
            )
        eta = (basis * self.target_populations) @ basis_dag
        gap2 = hs_norm((basis * thermal(self.e2, beta)) @ basis_dag - eta)
        if gap2 > PLAN_TOL:
            raise StateValidationError(
                f"ProtocolPlan: target state is not thermal for H2 "
                f"(distance {gap2:.3e})"
            )
        mats = (self.h0.mat, h1, h2)
        scale = max(max(hs_norm(m) for m in mats), 1e-30)
        for i in range(3):
            for j in range(i + 1, 3):
                comm = hs_norm(mats[i] @ mats[j] - mats[j] @ mats[i])
                if comm > PLAN_TOL * scale * scale:
                    raise StateValidationError(
                        f"ProtocolPlan: H{i} and H{j} do not share eigenprojectors "
                        f"(commutator norm {comm:.3e})"
                    )

    @cached_property
    def target_state(self) -> DensityMatrix:
        """eta, the projection of rho0 onto the energy eigenspaces of h0."""
        m = (self.basis * self.target_populations) @ self.basis.conj().T
        return DensityMatrix(m)

    @property
    def dim(self) -> int:
        return self.rho0.dim


def _clamp_distribution(p: np.ndarray, clamp: float) -> np.ndarray:
    if clamp > 0.0:
        p = np.clip(p, clamp, 1.0 - clamp)
    return p / p.sum()


def build_plan(rho: DensityMatrix, h: Hamiltonian, t: Temperature,
               purity_clamp: float = 1e-9,
               pairing: Sequence[int] | None = None) -> ProtocolPlan:
    """Construct the three-step plan for projecting rho onto h's eigenbasis.

    The spectrum of rho is clamped into [purity_clamp, 1 - purity_clamp] and
    renormalised before taking logarithms; a pure state with no clamp would
    need an infinite energy gap, so ``purity_clamp = 0`` raises
    ``ClampRequiredError`` whenever rho has a zero eigenvalue. The clamp
    shifts the achievable total work by at most
    ``2 * d * purity_clamp * ln(1/purity_clamp)``.

    Degenerate Hamiltonians are handled by diagonalising rho's block within
    each eigenspace, so the isotherm's endpoint is exactly the block-projected
    state. ``pairing`` optionally assigns rho-eigenvector l (ascending
    eigenvalue order) to basis slot pairing[l]; the default pairs descending
    populations with ascending energies, which reduces to the identity
    rotation when rho is already thermal. Pairing changes the rotation and
    the discretised isotherm path but never the exact step works or totals
    (the auxiliary Hamiltonians are built from the paired populations, so
    their traces see only the multiset).
    """
    if not 0.0 <= purity_clamp <= 1e-3:
        raise ValueError(
            f"purity_clamp must lie in [0, 1e-3], got {purity_clamp!r}"
        )
    if rho.dim != h.dim:
        raise StateValidationError(
            f"build_plan: state dimension {rho.dim} != Hamiltonian dimension {h.dim}"
        )
    d = rho.dim
    beta = t.beta

    a_raw = rho.spectrum()
    if purity_clamp == 0.0 and a_raw.min() <= _ZERO_EIGENVALUE:
        raise ClampRequiredError(
            "state has a zero eigenvalue; a positive purity_clamp is required "
            "to keep the step-1 energy gap finite"
        )
    a = _clamp_distribution(a_raw, purity_clamp)
    w_vecs = rho.eigenvectors
    rho_c = DensityMatrix((w_vecs * a) @ w_vecs.conj().T)

    # shared basis: within each energy eigenspace, diagonalise rho_c's block
    hv = h.spectral.eigenvectors
    f_cols = []
    e0_list = []
    q_list = []
    for idx, energy in zip(h.clusters, h.energies.tolist()):
        cols = hv[:, idx]
        block = cols.conj().T @ rho_c.mat @ cols
        qk, gk = np.linalg.eigh((block + block.conj().T) / 2.0)
        f_cols.append(cols @ gk)
        e0_list.extend([energy] * len(idx))
        q_list.extend(qk.tolist())
    basis = np.hstack(f_cols)
    e0 = np.array(e0_list)
    q = np.maximum(np.array(q_list), 0.0)
    q = q / q.sum()

    if pairing is None:
        perm = tuple(range(d - 1, -1, -1))
    else:
        perm = tuple(int(i) for i in pairing)
        if sorted(perm) != list(range(d)):
            raise ValueError(f"pairing must be a permutation of 0..{d - 1}, got {perm}")

    pop = np.empty(d)
    pop[np.array(perm)] = a
    v = basis[:, np.array(perm)] @ w_vecs.conj().T

    e1 = -np.log(pop) / beta
    e1 -= e1.mean()
    e2 = -np.log(q) / beta
    e2 -= e2.mean()

    return ProtocolPlan(
        rho0=rho_c, h0=h, v=v, temperature=t,
        basis=basis, e0=e0, e1=e1, e2=e2,
        populations=pop, target_populations=q,
        purity_clamp=purity_clamp, pairing=perm,
    )


def _isolated_steps(plan: ProtocolPlan, u1: float, isotherm: LedgerEntry,
                    u2: float) -> WorkLedger:
    """Ledger of the rotate step (energy U(rho0) -> u1), the given isotherm
    and the quench step (u2 -> U(eta, H0)); the isolated steps absorb no heat."""
    u_rho = average_energy(plan.rho0, plan.h0)
    u3 = float(plan.target_populations @ plan.e0)
    rotate = LedgerEntry("rotate", work=u_rho - u1, heat_absorbed=0.0,
                         energy_change=u1 - u_rho, entropy_change=0.0)
    quench = LedgerEntry("quench", work=u2 - u3, heat_absorbed=0.0,
                         energy_change=u3 - u2, entropy_change=0.0)
    return WorkLedger((rotate, isotherm, quench), purity_clamp=plan.purity_clamp)


def exact_step_works(plan: ProtocolPlan) -> WorkLedger:
    """Closed-form ledger for the three steps (no discretisation).

    The rotate and quench works are the energy drops of the isolated system;
    the isotherm work is the equilibrium free-energy difference. The totals
    reproduce the optimal projection work of the (clamped) initial state
    exactly.
    """
    beta = plan.temperature.beta
    pop, q = plan.populations, plan.target_populations

    u1 = float(pop @ plan.e1)
    u2 = float(q @ plan.e2)
    s_pop = shannon(pop)
    s_q = shannon(q)

    isotherm = LedgerEntry(
        "isotherm",
        work=(u1 - s_pop / beta) - (u2 - s_q / beta),
        heat_absorbed=(s_q - s_pop) / beta,
        energy_change=u2 - u1,
        entropy_change=s_q - s_pop,
    )
    return _isolated_steps(plan, u1, isotherm, u2)


def simulate(plan: ProtocolPlan, quasi_static_steps: int) -> WorkLedger:
    """Run the protocol with a discretised isotherm.

    The isotherm is a staircase of ``quasi_static_steps`` (small quench, full
    thermalisation) pairs along a linear eigenvalue schedule from H1 to H2;
    the state is exactly thermal after every sub-step. Its work approaches
    the free-energy difference with error O(1/steps).
    """
    n = int(quasi_static_steps)
    if n < 1:
        raise ValueError(f"quasi_static_steps must be >= 1, got {quasi_static_steps!r}")
    beta = plan.temperature.beta
    e1, e2 = plan.e1, plan.e2

    work = 0.0
    heat = 0.0
    s = np.linspace(0.0, 1.0, n + 1)
    chunk = 65536
    for start in range(0, n, chunk):
        # schedule rows start..stop inclusive: chunk steps, each chunk sharing
        # its first row with the previous one
        stop = min(start + chunk, n)
        ee = e1[None, :] + s[start:stop + 1, None] * (e2 - e1)[None, :]
        pp = thermal(ee, beta)
        # each sum forms its terms in place in one chunk-sized scratch array
        step = ee[:-1] - ee[1:]
        work += float(np.multiply(step, pp[:-1], out=step).sum())
        step = pp[1:] - pp[:-1]
        heat += float(np.multiply(step, ee[1:], out=step).sum())
    first_p = thermal(e1, beta)
    last_e, last_p = ee[-1], pp[-1]

    u1 = float(first_p @ e1)
    u2 = float(last_p @ last_e)
    isotherm = LedgerEntry("isotherm", work=work, heat_absorbed=heat,
                           energy_change=u2 - u1,
                           entropy_change=shannon(last_p) - shannon(first_p))
    return _isolated_steps(plan, u1, isotherm, u2)
