"""Quantum states, Hamiltonians, and thermodynamic potentials.

Units: k_B = 1, so temperature enters only through beta = 1/T. Energies are in
the Hamiltonian's own units, entropies in nats except where a function
explicitly says bits (the relative entropy, which feeds the single-shot
formulas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DimMismatchError,
    NonHermitianError,
    NonSquareError,
    StateValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    SpectralDecomposition,
    cluster_projectors,
    eigenvalue_clusters,
    hermitian_part,
    shannon,
    thermal,
)

# eigenvalues in [EIGENVALUE_FLOOR, 0) are numerical noise and clamp to 0;
# anything below the floor is a genuine validation failure
EIGENVALUE_FLOOR = -1e-10

# sigma-eigenvalues below this count as outside the support in relative_entropy
SUPPORT_TOL = 1e-12

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Temperature:
    """Heat-bath temperature, stored as inverse temperature beta = 1/T."""

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise StateValidationError(
                f"Temperature: beta must be finite and > 0, got {self.beta!r}"
            )

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta


class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    Validation happens once at construction: Hermiticity and unit trace within
    ``tol``, eigenvalues above ``EIGENVALUE_FLOOR``. Eigenvalues in the small
    negative noise band are clamped to zero whenever read through
    :meth:`spectrum`, which is what the entropy functions consume. Instances
    are immutable after construction.
    """

    __slots__ = ("mat", "dim", "_eigenvalues", "_eigenvectors")

    def __init__(self, mat, tol: float = DEFAULT_TOL):
        try:
            m = hermitian_part(mat, tol)
        except (NonSquareError, NonHermitianError) as exc:
            raise StateValidationError(f"DensityMatrix: {exc}") from None
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > tol:
            raise StateValidationError(
                f"DensityMatrix: trace must be 1 within {tol:g}, got {tr!r}"
            )
        w, v = np.linalg.eigh(m)
        if w[0] < EIGENVALUE_FLOOR:
            raise StateValidationError(
                f"DensityMatrix: negative eigenvalue {w[0]:.3e} below floor "
                f"{EIGENVALUE_FLOOR:g}"
            )
        m.setflags(write=False)
        w.setflags(write=False)
        v.setflags(write=False)
        self.mat = m
        self.dim = m.shape[0]
        self._eigenvalues = w
        self._eigenvectors = v

    @property
    def spectral(self) -> SpectralDecomposition:
        return SpectralDecomposition(self._eigenvalues, self._eigenvectors)

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors

    def spectrum(self) -> np.ndarray:
        """Eigenvalues ascending, clamped to be nonnegative."""
        return np.maximum(self._eigenvalues, 0.0)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class Hamiltonian:
    """Hermitian observable with cached spectral data and energy levels.

    Eigenvalues closer than ``CLUSTER_GAP * max(1, max|E|)`` are merged into
    one degenerate level, so the levels do not depend on the energy unit:
    :attr:`clusters` holds the eigenvector column indices of each level in
    ascending energy order, and :attr:`energies` the mean eigenvalue of each
    cluster. Downstream code depends only on the spanned eigenspaces,
    never on the basis chosen inside a degenerate cluster.
    """

    __slots__ = ("mat", "dim", "spectral", "clusters", "energies")

    def __init__(self, mat, tol: float = DEFAULT_TOL):
        m = hermitian_part(mat, tol)
        m.setflags(write=False)
        w, v = np.linalg.eigh(m)
        self.spectral = SpectralDecomposition(w, v)
        self.mat = m
        self.dim = m.shape[0]
        self.clusters = tuple(eigenvalue_clusters(w))
        for idx in self.clusters:
            idx.setflags(write=False)
        self.energies = np.array([float(np.mean(w[idx])) for idx in self.clusters])
        self.energies.setflags(write=False)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Eigenprojector of each level, built on demand."""
        return cluster_projectors(self.spectral.eigenvectors, self.clusters)

    @property
    def levels(self) -> tuple[tuple[float, np.ndarray], ...]:
        """``(energy, projector)`` pairs in ascending energy order."""
        return tuple(zip(self.energies.tolist(), self.projectors))

    @property
    def degeneracies(self) -> np.ndarray:
        return np.array([len(idx) for idx in self.clusters])

    def __repr__(self):
        return f"Hamiltonian(dim={self.dim}, levels={len(self.clusters)})"


def bloch_qubit(a: float, theta: float) -> DensityMatrix:
    """Qubit with eigenvalues (a, 1-a), eigenbasis tilted by theta.

    The matrix is written in the computational basis, which the rest of the
    library identifies with the energy eigenbasis of a diagonal Hamiltonian;
    theta is then the angle between the state's Bloch vector and the energy
    axis.
    """
    if not 0.0 <= a <= 1.0:
        raise StateValidationError(f"bloch_qubit: a must lie in [0, 1], got {a!r}")
    r = 2.0 * a - 1.0
    sz = r * math.cos(theta)
    sx = r * math.sin(theta)
    m = 0.5 * np.array([[1.0 + sz, sx], [sx, 1.0 - sz]], dtype=complex)
    return DensityMatrix(m)


def _check_dims(rho: DensityMatrix, h: Hamiltonian):
    if rho.dim != h.dim:
        raise DimMismatchError(
            f"state dimension {rho.dim} != Hamiltonian dimension {h.dim}"
        )


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr[rho ln rho] in nats, with 0 ln 0 = 0.

    Clamped eigenvalues make every term nonnegative except for a top
    eigenvalue a rounding error above 1; the final clip removes that
    artifact, so pure states give exactly 0 whenever their unit eigenvalue
    is exact and never a negative value.
    """
    return max(shannon(rho.spectrum()), 0.0)


def gibbs_state(h: Hamiltonian, t: Temperature) -> DensityMatrix:
    """Thermal state e^(-beta H) / Z, computed in the eigenbasis."""
    p = thermal(h.spectral.eigenvalues, t.beta)
    v = h.spectral.eigenvectors
    return DensityMatrix((v * p) @ v.conj().T)


def average_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """U = tr[rho H]."""
    _check_dims(rho, h)
    val = complex(np.trace(rho.mat @ h.mat))
    # rounding leaves an imaginary part proportional to the energy scale
    if abs(val.imag) > 1e-10 * max(1.0, -h.energies[0], h.energies[-1]):
        raise StateValidationError(
            f"average_energy: nonreal trace, imaginary part {val.imag:.3e}"
        )
    return val.real


def check_first_law(what: str, work: float, heat_absorbed: float,
                    energy_change: float):
    """Raise ``ConsistencyError`` unless energy_change = heat_absorbed - work.

    The tolerance, 1e-10 * max(1, |work|, |heat|, |energy change|), follows
    the energy scale, so changing the units of H and T together trips nothing.
    A NaN term fails the check.
    """
    gap = abs(energy_change - (heat_absorbed - work))
    if not gap <= 1e-10 * max(1.0, abs(work), abs(heat_absorbed), abs(energy_change)):
        raise ConsistencyError(f"{what} violates the first law by {gap:.3e}")


def free_energy(rho: DensityMatrix, h: Hamiltonian, t: Temperature) -> float:
    """Out-of-equilibrium free energy F = U - S/beta."""
    return average_energy(rho, h) - von_neumann_entropy(rho) / t.beta


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: int) -> DensityMatrix:
    """Trace out one tensor factor of a bipartite state.

    ``dims = (d_first, d_second)`` must factor the state's dimension;
    ``keep = 0`` keeps the first factor, ``keep = 1`` the second.
    """
    d0, d1 = int(dims[0]), int(dims[1])
    if d0 < 1 or d1 < 1 or d0 * d1 != rho.dim:
        raise DimMismatchError(
            f"partial_trace: dims {dims} do not factor dimension {rho.dim}"
        )
    if keep not in (0, 1):
        raise ValueError(f"partial_trace: keep must be 0 or 1, got {keep!r}")
    r = rho.mat.reshape(d0, d1, d0, d1)
    if keep == 0:
        out = np.einsum("iaja->ij", r)
    else:
        out = np.einsum("iaib->ab", r)
    return DensityMatrix(out)


def purify(rho: DensityMatrix) -> DensityMatrix:
    """Minimal purification |psi><psi| on dim^2.

    |psi> = sum_l sqrt(a_l) |v_l> (x) |l>, where a_l, |v_l> are the state's
    eigenpairs and |l> is the computational (label) basis of the ancilla, so
    tracing out the second factor returns the input.
    """
    w = rho.spectrum()
    v = rho.eigenvectors
    d = rho.dim
    psi = np.zeros(d * d, dtype=complex)
    for l in range(d):
        if w[l] > 0.0:
            psi += math.sqrt(w[l]) * np.kron(v[:, l], np.eye(d)[:, l])
    psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho || sigma) = tr[rho (log rho - log sigma)] in bits.

    Returns ``math.inf`` when rho has weight outside the support of sigma
    (sigma-eigenvalues below 1e-12 count as outside; weight above 1e-10 on
    them triggers the sentinel).
    """
    if rho.dim != sigma.dim:
        raise DimMismatchError(
            f"relative_entropy: dimensions differ ({rho.dim} vs {sigma.dim})"
        )
    p = rho.spectrum()
    q = sigma.spectrum()
    overlap = np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2
    outside = q < SUPPORT_TOL
    if outside.any():
        violation = float(p @ overlap[:, outside].sum(axis=1))
        if violation > 1e-10:
            return math.inf
    s_term = -shannon(p)
    inside = ~outside
    cross = float((p[:, None] * overlap[:, inside] * np.log(q[inside])[None, :]).sum())
    val = (s_term - cross) / _LN2
    if -1e-12 < val < 0.0:
        return 0.0
    return val
