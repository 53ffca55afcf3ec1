"""Dense complex linear algebra kernel sized for dimensions up to ~64.

Everything here works on plain ``numpy`` arrays of ``complex128``; the rest of
the library layers physical meaning on top. All functions are pure and never
mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CohereworkError, NonFiniteError, NonHermitianError, NonSquareError

DEFAULT_TOL = 1e-10

# eigenvalues closer than this are treated as one degenerate cluster
CLUSTER_GAP = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array (no copy when already one)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise NonSquareError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"matrix of shape {m.shape} has NaN or infinite entries")
    return m


def hs_norm(a) -> float:
    """Hilbert-Schmidt norm sqrt(tr[A^dag A]) (the Frobenius norm)."""
    return float(np.linalg.norm(np.asarray(a)))


def shannon(p: np.ndarray) -> float:
    """Shannon entropy -sum_k p_k ln p_k in nats over the entries p_k > 0."""
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def thermal(e, beta: float, g=None) -> np.ndarray:
    """Boltzmann weights g_k e^(-beta e_k) / Z along the last axis of ``e``.

    The exponents are shifted by their largest value, so neither a negative
    beta nor a large beta * spread can overflow. A 2-d ``e`` gives one
    distribution per row; ``g`` (default all ones) holds the degeneracies.
    """
    p = -beta * np.asarray(e, dtype=float)  # a new array: updated in place below
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    if g is not None:
        p *= g
    p /= p.sum(axis=-1, keepdims=True)
    return p


def log_partition(e, beta: float, g=None) -> float:
    """ln Z = ln sum_k g_k e^(-beta e_k) of a 1-d ``e``, shifted like
    :func:`thermal`; ``g`` (default all ones) holds the degeneracies."""
    x = -beta * np.asarray(e, dtype=float)
    m = x.max()
    w = np.exp(x - m)
    if g is not None:
        w *= g
    return float(m + math.log(w.sum()))


def cluster_projectors(basis: np.ndarray, clusters) -> tuple[np.ndarray, ...]:
    """Projectors B_k B_k^dag onto the column groups B_k = basis[:, c_k]."""
    return tuple(basis[:, c] @ basis[:, c].conj().T for c in clusters)


def kron(a, b) -> np.ndarray:
    """Kronecker product; output dimensions are the products of the inputs'."""
    return np.kron(as_matrix(a), as_matrix(b))


def hermitian_part(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(A + A^dag)/2 of a square matrix A that is Hermitian within ``tol``.

    Raises ``NonSquareError`` on shape mismatch and ``NonHermitianError`` when
    ``||A - A^dag|| > tol * ||A||``.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"matrix must be square, got shape {m.shape}")
    scale = max(hs_norm(m), 1e-300)
    defect = hs_norm(m - m.conj().T)
    if defect > tol * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: ||A - A^dag|| = {defect:.3e} "
            f"exceeds {tol:g} * ||A|| = {tol * scale:.3e}"
        )
    return (m + m.conj().T) / 2.0


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    try:
        hermitian_part(a, tol)
    except CohereworkError:
        return False
    return True


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    d = m.shape[0]
    return hs_norm(m.conj().T @ m - np.eye(d)) <= tol * math.sqrt(d)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    Satisfies ``A @ V == V @ diag(w)`` and ``V^dag V == 1`` to 1e-10 relative
    accuracy for the decomposed matrix A.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Rebuild the original matrix as V diag(w) V^dag."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(a, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is validated and symmetrised by :func:`hermitian_part` before
    factorisation, so the result is deterministic for identical inputs;
    within numerically degenerate clusters the eigenvector basis is whatever
    the underlying LAPACK routine returns, and callers must not rely on it
    beyond the spanned subspace.
    """
    w, v = np.linalg.eigh(hermitian_part(a, tol))
    return SpectralDecomposition(w, v)


def eigenvalue_clusters(values: np.ndarray, gap: float = CLUSTER_GAP) -> list[np.ndarray]:
    """Group an ascending eigenvalue array into degenerate clusters.

    A new cluster starts whenever the jump to the next eigenvalue exceeds
    ``gap``. Returns index arrays into ``values``.
    """
    n = len(values)
    if n == 0:
        return []
    clusters = []
    start = 0
    for i in range(1, n):
        if values[i] - values[i - 1] > gap:
            clusters.append(np.arange(start, i))
            start = i
    clusters.append(np.arange(start, n))
    return clusters
