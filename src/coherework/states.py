"""Quantum states, Hamiltonians, and thermodynamic potentials.

Units: k_B = 1, so temperature enters only through beta = 1/T. Energies are in
the Hamiltonian's own units, entropies in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    NonFiniteError,
    NonHermitianError,
    NonSquareError,
    ParameterRangeError,
    StateValidationError,
)
from .linalg import (DEFAULT_TOL, eigenvalue_clusters, hermitian_part, require_same_dim,
                     shannon, thermal)

# eigenvalues in [EIGENVALUE_FLOOR, 0) are numerical noise and clamp to 0;
# anything below the floor is a genuine validation failure
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class Temperature:
    """Heat-bath temperature, stored as inverse temperature beta = 1/T."""

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise StateValidationError(
                f"Temperature: beta must be finite and > 0, got {self.beta!r}"
            )


class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    Validation happens once at construction: Hermiticity and unit trace within
    ``DEFAULT_TOL``, eigenvalues above ``EIGENVALUE_FLOOR``. Eigenvalues in the
    small negative noise band are clamped to zero whenever read through
    :meth:`spectrum`, which is what the entropy functions consume;
    :attr:`eigenvectors` holds the matching columns. Instances are immutable
    after construction.
    """

    __slots__ = ("mat", "dim", "_eigenvalues", "eigenvectors")

    def __init__(self, mat):
        try:
            m = hermitian_part(mat)
        except (NonSquareError, NonHermitianError) as exc:
            raise StateValidationError(f"DensityMatrix: {exc}") from None
        self._fill(m)

    @classmethod
    def _trusted(cls, mat: np.ndarray) -> "DensityMatrix":
        """State from a square complex matrix the library built from validated
        parts, Hermitian up to rounding: symmetrised and factorised like a
        public one, with the trace and eigenvalue-floor checks but no entry,
        shape or Hermiticity checks."""
        self = cls.__new__(cls)
        self._fill((mat + mat.conj().T) / 2.0)
        return self

    @classmethod
    def _from_eigh(cls, w: np.ndarray, v: np.ndarray) -> "DensityMatrix":
        """State with the eigenvalues ``w`` (ascending, nonnegative, summing
        to 1) and orthonormal eigenvector columns ``v`` that the library
        derived from a validated state: its matrix is formed and symmetrised
        as :meth:`_trusted` would, and ``w`` and ``v`` are stored as its
        eigen-data in place of a factorisation, unchecked."""
        self = cls.__new__(cls)
        m = (v * w) @ v.conj().T
        self._store((m + m.conj().T) / 2.0, w, v)
        return self

    def _fill(self, m: np.ndarray):
        """Check the trace and eigenvalue floor of the Hermitian ``m`` and store
        it with its eigen-data; a NaN fails a check rather than passing it."""
        tr = float(m.trace().real)
        if not abs(tr - 1.0) <= DEFAULT_TOL:
            raise StateValidationError(
                f"DensityMatrix: trace must be 1 within {DEFAULT_TOL:g}, got {tr!r}"
            )
        try:
            w, v = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise StateValidationError(f"DensityMatrix: eigendecomposition failed: {exc}") from None
        # the minimum rather than w[0]: eigh may leave a NaN anywhere
        w_min = w.min()
        if not w_min >= EIGENVALUE_FLOOR:
            raise StateValidationError(
                f"DensityMatrix: negative eigenvalue {w_min:.3e} below floor "
                f"{EIGENVALUE_FLOOR:g}"
            )
        self._store(m, w, v)

    def _store(self, m: np.ndarray, w: np.ndarray, v: np.ndarray):
        """Keep the matrix ``m`` and its eigen-data, read-only."""
        for arr in (m, w, v):
            arr.setflags(write=False)
        self.mat = m
        self.dim = m.shape[0]
        self._eigenvalues = w
        self.eigenvectors = v

    def spectrum(self) -> np.ndarray:
        """Eigenvalues ascending, clamped to be nonnegative."""
        return np.maximum(self._eigenvalues, 0.0)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class Hamiltonian:
    """Hermitian observable with cached spectral data and energy levels.

    :attr:`eigenvalues` (ascending) and :attr:`eigenvectors` (columns) come
    from one ``eigh``. Eigenvalues closer than ``CLUSTER_GAP`` times the spread
    of the spectrum merge into one degenerate level (see
    :func:`~coherework.linalg.eigenvalue_clusters`), so the levels depend
    neither on the energy unit nor on the energy zero: :attr:`clusters` holds
    the eigenvector column indices of each level in ascending energy order,
    and :attr:`energies` the mean eigenvalue of each cluster. Downstream code
    depends only on the spanned eigenspaces, never on the basis chosen inside
    a degenerate cluster.
    """

    __slots__ = ("mat", "dim", "eigenvalues", "eigenvectors", "clusters", "energies")

    def __init__(self, mat):
        self._fill(hermitian_part(mat))

    @classmethod
    def _trusted(cls, mat: np.ndarray) -> "Hamiltonian":
        """Hamiltonian from a square complex matrix the library built Hermitian
        with finite entries: symmetrised and factorised like a public one, with
        no entry, shape or Hermiticity checks."""
        self = cls.__new__(cls)
        self._fill((mat + mat.conj().T) / 2.0)
        return self

    def _fill(self, m: np.ndarray):
        """Store the Hermitian ``m`` with its eigen-data and clustered levels."""
        if m.shape[0] == 0:
            raise StateValidationError("Hamiltonian: needs at least one level, got a 0 x 0 matrix")
        w, v = np.linalg.eigh(m)
        for arr in (m, w, v):
            arr.setflags(write=False)
        self.mat = m
        self.dim = m.shape[0]
        self.eigenvalues = w
        self.eigenvectors = v
        self.clusters = tuple(eigenvalue_clusters(w))
        for idx in self.clusters:
            idx.setflags(write=False)
        self.energies = np.array([w[idx].mean() if len(idx) > 1 else w[idx[0]]
                                  for idx in self.clusters])
        self.energies.setflags(write=False)

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
    if not math.isfinite(theta):
        raise NonFiniteError(f"bloch_qubit: theta must be finite, got {theta!r}")
    r = 2.0 * a - 1.0
    sz = r * math.cos(theta)
    sx = r * math.sin(theta)
    m = 0.5 * np.array([[1.0 + sz, sx], [sx, 1.0 - sz]], dtype=complex)
    return DensityMatrix._trusted(m)


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
    p = thermal(h.eigenvalues, t.beta)
    v = h.eigenvectors
    return DensityMatrix._trusted((v * p) @ v.conj().T)


def average_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """U = tr[rho H]."""
    require_same_dim("average_energy", state=rho.dim, H=h.dim)
    val = complex(np.trace(rho.mat @ h.mat))
    # rounding leaves an imaginary part proportional to the energy scale
    if abs(val.imag) > 1e-10 * max(-h.energies[0], h.energies[-1]):
        raise StateValidationError(
            f"average_energy: nonreal trace, imaginary part {val.imag:.3e}"
        )
    return val.real


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
        raise ParameterRangeError(f"partial_trace: keep must be 0 or 1, got {keep!r}")
    r = rho.mat.reshape(d0, d1, d0, d1)
    if keep == 0:
        out = np.einsum("iaja->ij", r)
    else:
        out = np.einsum("iaib->ab", r)
    return DensityMatrix._trusted(out)


def purify(rho: DensityMatrix) -> DensityMatrix:
    """Minimal purification |psi><psi| on dim^2.

    |psi> = sum_l sqrt(a_l) |v_l> (x) |l>, where a_l, |v_l> are the state's
    eigenpairs and |l> is the computational (label) basis of the ancilla, so
    tracing out the second factor returns the input.
    """
    # entry (i, l) of v sqrt(a) is component i*d + l; + 0.0 makes -0.0 zeros +0.0
    psi = (rho.eigenvectors * np.sqrt(rho.spectrum())).reshape(-1) + 0.0
    psi /= np.linalg.norm(psi)
    return DensityMatrix._trusted(np.outer(psi, psi.conj()))
