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

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ClampRequiredError, ParameterRangeError
from .linalg import (as_matrix, is_real, require_count, require_same_dim, require_types,
                     shannon, thermal)
from .projection import WorkReport
from .states import DensityMatrix, Hamiltonian, Temperature, average_energy

# the purity clamp build_plan applies by default, and the largest it accepts
DEFAULT_PURITY_CLAMP = 1e-9
MAX_PURITY_CLAMP = 1e-3

# an eigenvalue at or below this is "zero" for clamping purposes
_ZERO_EIGENVALUE = 1e-14

# simulate runs its isotherm in chunks of this many steps, each chunk's sums
# added to the totals in order; within a chunk it fills at most this many
# entries of each product at a time (a leaf of numpy's pairwise-sum tree)
_CHUNK = 65536
_LEAF = 32768


@dataclass(frozen=True)
class WorkLedger:
    """Per-step energy bookkeeping with summed totals.

    ``entries`` maps the step labels "rotate", "isotherm" and "quench", in
    that order, to their :class:`~coherework.projection.WorkReport`, each
    checked against the first law at the energy ``scale`` of the protocol,
    as are the totals; isolated steps carry exactly zero heat by
    construction. ``entries`` is a read-only copy of the mapping it is
    given, and a ledger is unhashable, like the mapping.
    """

    entries: Mapping[str, WorkReport]
    scale: float = 0.0

    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    @property
    def totals(self) -> WorkReport:
        steps = self.entries.values()
        return WorkReport(work=sum(e.work for e in steps),
                          entropy_change=sum(e.entropy_change for e in steps),
                          energy_change=sum(e.energy_change for e in steps),
                          heat_absorbed=sum(e.heat_absorbed for e in steps),
                          scale=self.scale)


@dataclass(frozen=True)
class ProtocolPlan:
    """The three-step protocol that projects ``rho`` onto ``h0``'s eigenbasis
    at ``temperature``, derived in full from those inputs and ``purity_clamp``.

    The spectrum of rho is clamped into [purity_clamp, 1 - purity_clamp] and
    renormalised before taking logarithms; a pure state with no clamp would
    need an infinite energy gap, so ``purity_clamp = 0`` raises
    ``ClampRequiredError`` whenever rho has a zero eigenvalue. The clamp
    shifts the achievable total work by at most
    ``2 * d * purity_clamp * ln(1/purity_clamp)``. ``rho0`` is the clamped
    state the plan drives.

    Degenerate Hamiltonians are handled by diagonalising rho0's block within
    each eigenspace: ``basis`` holds the resulting shared eigenbasis
    (columns) in which rho1, eta and all three Hamiltonians are diagonal, so
    the isotherm's endpoint is exactly the block-projected state.
    ``populations`` is the spectrum of rho1 and ``target_populations`` that
    of eta. The rotation ``v`` pairs descending populations with ascending
    energies, which reduces to the identity rotation when rho is already
    thermal. ``e0`` repeats the levels of ``h0``, ``e1`` and ``e2`` are the
    traceless energies whose thermal states are the two spectra, and
    H_k = basis diag(e_k) basis^dag.

    Every field after ``purity_clamp`` is derived and read-only, so a plan
    cannot disagree with its inputs and needs no consistency check: only the
    entry bound of H1 and H2, which a vanishing beta's infinite gap exceeds.
    """

    rho: DensityMatrix
    h0: Hamiltonian
    temperature: Temperature
    purity_clamp: float = DEFAULT_PURITY_CLAMP
    rho0: DensityMatrix = field(init=False)
    v: np.ndarray = field(init=False)
    basis: np.ndarray = field(init=False)
    populations: np.ndarray = field(init=False)
    target_populations: np.ndarray = field(init=False)
    e0: np.ndarray = field(init=False)
    e1: np.ndarray = field(init=False)
    e2: np.ndarray = field(init=False)

    def __post_init__(self):
        require_types("ProtocolPlan", self, rho=DensityMatrix, h0=Hamiltonian,
                      temperature=Temperature)
        rho, h, clamp = self.rho, self.h0, self.purity_clamp
        if not (is_real(clamp) and 0.0 <= clamp <= MAX_PURITY_CLAMP):
            raise ParameterRangeError(
                f"purity_clamp must lie in [0, {MAX_PURITY_CLAMP:g}], got {clamp!r}"
            )
        require_same_dim("build_plan", state=rho.dim, H=h.dim)
        d = rho.dim

        a = rho.spectrum()
        if clamp == 0.0 and a.min() <= _ZERO_EIGENVALUE:
            raise ClampRequiredError(
                "state has a zero eigenvalue; a positive purity_clamp is required "
                "to keep the step-1 energy gap finite"
            )
        if clamp > 0.0:
            a = np.clip(a, clamp, 1.0 - clamp)
        a = a / a.sum()
        w_vecs = rho.eigenvectors
        # the clamp keeps rho's eigenvectors and the order of its spectrum
        rho0 = DensityMatrix._from_eigh(a, w_vecs)

        # shared basis: within each energy eigenspace, diagonalise rho0's block
        hv = h.eigenvectors
        f_cols = []
        q_list = []
        for idx in h.clusters:
            cols = hv[:, idx]
            block = cols.conj().T @ rho0.mat @ cols
            if len(idx) == 1:
                # what eigh returns for a 1 x 1 block: its real entry and the unit vector
                f_cols.append(cols)
                q_list.append(block[0, 0].real)
                continue
            qk, gk = np.linalg.eigh((block + block.conj().T) / 2.0)
            f_cols.append(cols @ gk)
            q_list.extend(qk.tolist())
        basis = np.hstack(f_cols)
        q = np.maximum(np.array(q_list), 0.0)
        q = q / q.sum()

        # rho-eigenvector l (ascending eigenvalue) goes to basis slot d - 1 - l
        rev = np.arange(d - 1, -1, -1)
        populations = a[rev]
        beta = self.temperature.beta
        # a zero population or a vanishing beta overflows; the entry bound raises the typed error
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            e1 = -np.log(populations) / beta
            e1 -= e1.mean()
            e2 = -np.log(q) / beta
            e2 -= e2.mean()
        object.__setattr__(self, "rho0", rho0)
        for name, arr in (("v", basis[:, rev] @ w_vecs.conj().T), ("basis", basis),
                          ("populations", populations), ("target_populations", q),
                          ("e0", np.repeat(h.energies, h.degeneracies)), ("e1", e1), ("e2", e2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # the entry bound of H1 and H2; a vanishing beta's infinite gap raises here
        as_matrix(np.diag(e1))
        as_matrix(np.diag(e2))


def build_plan(rho: DensityMatrix, h: Hamiltonian, t: Temperature,
               purity_clamp: float = DEFAULT_PURITY_CLAMP) -> ProtocolPlan:
    """The three-step plan for projecting rho onto h's eigenbasis at t; see
    :class:`ProtocolPlan` for the clamp and the derived fields."""
    return ProtocolPlan(rho, h, t, purity_clamp)


def _ledger(plan: ProtocolPlan, u1: float, s1: float, u2: float, s2: float,
            work: float, heat: float) -> WorkLedger:
    """Ledger of the rotate step (energy U(rho0) -> u1), the isotherm from
    (u1, entropy s1) to (u2, s2) with the given work and heat, and the quench
    step (u2 -> U(eta, H0)); the isolated steps absorb no heat.

    The isotherm's terms are differences of energies up to max|e| of the
    three Hamiltonians and of free-energy terms up to T max(s1, s2), which
    near infinite temperature are far larger; the ledger's scale is their sum.
    """
    u_rho = average_energy(plan.rho0, plan.h0)
    u3 = float(plan.target_populations @ plan.e0)
    scale = (max(float(np.abs(e).max()) for e in (plan.e0, plan.e1, plan.e2))
             + max(s1, s2) / plan.temperature.beta)
    entries = {
        "rotate": WorkReport(work=u_rho - u1, entropy_change=0.0,
                             energy_change=u1 - u_rho, heat_absorbed=0.0, scale=scale),
        "isotherm": WorkReport(work=work, entropy_change=s2 - s1,
                               energy_change=u2 - u1, heat_absorbed=heat, scale=scale),
        "quench": WorkReport(work=u2 - u3, entropy_change=0.0,
                             energy_change=u3 - u2, heat_absorbed=0.0, scale=scale),
    }
    return WorkLedger(entries, scale)


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

    return _ledger(plan, u1, s_pop, u2, s_q,
                   work=(u1 - s_pop / beta) - (u2 - s_q / beta),
                   heat=(s_q - s_pop) / beta)


def _pairwise(part, lo: int, hi: int) -> tuple[float, float]:
    """Two sums over the flat entries lo..hi, added up numpy's pairwise-sum
    tree from the sums ``part`` returns for leaves of at most :data:`_LEAF`
    entries (a module function: a nested recursive one would be a reference
    cycle, keeping each call's arrays alive until the garbage collector runs)."""
    if hi - lo <= _LEAF:
        return part(lo, hi)
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    w1, h1 = _pairwise(part, lo, mid)
    w2, h2 = _pairwise(part, mid, hi)
    return w1 + w2, h1 + h2


def _isotherm(e1: np.ndarray, e2: np.ndarray, beta: float, n: int) -> tuple[float, float]:
    """Work and heat of the n-step staircase from the energies e1 to e2.

    Step k's work and heat products are row k of two n x d arrays, whose
    sums are added to the totals a chunk of :data:`_CHUNK` rows at a time.
    numpy sums a contiguous float64 array pairwise, splitting a part of more
    than 128 entries after its first ``h - h % 8`` (``h`` half its length);
    :func:`_pairwise` splits a chunk's flat range the same way into parts of
    at most :data:`_LEAF` entries, so their sums are the chunk's bit for bit.
    A part forms the schedule rows its steps touch in three row-major views
    of one buffer the call allocates: the energies, their thermal weights
    and a scratch product for the work sum and then the heat sum. Every
    operation on a row is row-local, so a row two parts share gets the same
    bits in both.
    """
    d = len(e1)
    rows = min(n, _CHUNK, _LEAF // d + 2)  # the most step rows one part touches
    m = (rows + 1) * d
    buf = np.empty(2 * m + rows * d)
    de = e2 - e1

    def part(lo: int, hi: int) -> tuple[float, float]:
        # entries lo..hi of the flat products, from schedule rows a..b
        a, b = lo // d, -(-hi // d)
        r = b - a
        ee = buf[:(r + 1) * d].reshape(r + 1, d)
        pp = buf[m:m + (r + 1) * d].reshape(r + 1, d)
        flat = buf[2 * m:2 * m + r * d]
        step = flat.reshape(r, d)
        # the bits of np.linspace(0.0, 1.0, n + 1)[a:b + 1]: k * (1 / n), and 1 at row n
        s = np.arange(a, b + 1, dtype=float)
        s *= 1.0 / n
        if b == n:
            s[-1] = 1.0
        np.add(e1, np.multiply(s[:, None], de, out=ee), out=ee)
        thermal(ee, beta, out=pp)
        mine = flat[lo - a * d:hi - a * d]
        np.subtract(ee[:-1], ee[1:], out=step)
        np.multiply(step, pp[:-1], out=step)
        w = float(mine.sum())
        np.subtract(pp[1:], pp[:-1], out=step)
        np.multiply(step, ee[1:], out=step)
        return w, float(mine.sum())

    work = heat = 0.0
    for start in range(0, n, _CHUNK):
        w, h = _pairwise(part, start * d, min(start + _CHUNK, n) * d)
        work += w
        heat += h
    return work, heat


def simulate(plan: ProtocolPlan, quasi_static_steps: int) -> WorkLedger:
    """Run the protocol with a discretised isotherm.

    The isotherm is a staircase of ``quasi_static_steps`` (small quench, full
    thermalisation) pairs along a linear eigenvalue schedule from H1 to H2;
    the state is exactly thermal after every sub-step. Its work approaches
    the free-energy difference with error O(1/steps).

    Memory: the staircase runs in chunks of 65,536 steps, and each chunk in
    parts of at most 32,768 entries of its r x d work and heat products,
    through three views of one buffer that each call allocates and drops:
    3 (32,768 // d + 3) x d floats at most, under 0.8 MB for every d up to
    64. Each part forms the schedule values of its own rows, so nothing the
    call allocates grows with the step count. No state is kept between
    calls, so concurrent calls share nothing. The ledger holds floats only.
    ``quasi_static_steps`` is an int or a numpy integer, at least 1.
    """
    n = require_count("quasi_static_steps", quasi_static_steps, 1)
    beta, e1 = plan.temperature.beta, plan.e1
    work, heat = _isotherm(e1, plan.e2, beta, n)
    # schedule row n, s = 1, with the bits the kernel gives it: 1.0 * de is de
    last_e = e1 + (plan.e2 - e1)
    first_p, last_p = thermal(e1, beta), thermal(last_e, beta)
    return _ledger(plan, float(first_p @ e1), shannon(first_p), float(last_p @ last_e),
                   shannon(last_p), work, heat)
