"""Dense complex linear algebra kernel sized for dimensions up to ~64.

Everything here works on plain ``numpy`` arrays of ``complex128``; the rest of
the library layers physical meaning on top. All functions are pure and never
mutate their inputs.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import (DimMismatchError, NonFiniteError, NonHermitianError, NonSquareError,
                     ParameterRangeError, StateValidationError)

# relative Hermiticity and unitarity tolerance of every check (DensityMatrix
# also holds its trace to it); reports record it in provenance.tolerances
DEFAULT_TOL = 1e-10

# eigenvalues closer than this, relative to the spread of the spectrum, are
# treated as one degenerate cluster
CLUSTER_GAP = 1e-8

# the largest real or imaginary part a matrix entry may have: up to d = 64,
# the norm of such a matrix and every entry of a product of two stay finite
MAX_ENTRY = 1e150


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array with finite entries, each part at most
    :data:`MAX_ENTRY` in magnitude (no copy when already one)."""
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        try:
            np.shape(a)
        except ValueError:  # numpy finds no shape for a ragged nesting
            raise NonSquareError("expected a 2-d array, got ragged rows") from None
        raise StateValidationError("matrix entries must be numbers a double holds") from None
    if m.ndim != 2:
        raise NonSquareError(f"expected a 2-d array, got shape {m.shape}")
    # an entry's modulus bounds both of its parts, so the parts are looked at
    # only past this one cheaper test, which a NaN or an infinity also fails
    if not np.abs(m).max(initial=0.0) <= MAX_ENTRY:
        if not np.isfinite(m).all():
            raise NonFiniteError(f"matrix of shape {m.shape} has NaN or infinite entries")
        if max(np.abs(m.real).max(), np.abs(m.imag).max()) > MAX_ENTRY:
            raise NonFiniteError(
                f"matrix of shape {m.shape} has an entry beyond {MAX_ENTRY:g} in magnitude")
    return m


def hs_norm(a) -> float:
    """Hilbert-Schmidt norm sqrt(tr[A^dag A]) (the Frobenius norm)."""
    return float(np.linalg.norm(np.asarray(a)))


def shannon(p: np.ndarray) -> float:
    """Shannon entropy -sum_k p_k ln p_k in nats over the entries p_k > 0."""
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def _boltzmann(what: str, e, beta: float, g=None, out=None):
    """g_k e^(x_k - top) along the last axis of x = -beta e (in ``out`` if given)
    and top, each row's largest x_k; ``NonFiniteError`` where a top is not finite."""
    with np.errstate(over="ignore"):
        p = np.multiply(-beta, e, out=out)  # a new array when out is None
    top = np.maximum.reduce(p, -1, keepdims=p.ndim > 1)  # p.max, without its wrapper
    if not (math.isfinite(top) if p.ndim == 1 else np.isfinite(top).all()):
        raise NonFiniteError(f"{what}: beta * E overflows a double "
                             f"(beta = {beta:g}, max |E| = {float(np.abs(e).max()):g})")
    p -= top
    np.exp(p, out=p)
    if g is not None:
        p *= g
    return p, top


def thermal(e, beta: float, g=None, out=None) -> np.ndarray:
    """Boltzmann weights g_k e^(-beta e_k) / Z along the last axis of ``e``.

    The exponents are shifted by their largest value, so neither a negative
    beta nor a large beta * spread can overflow. A row whose largest
    exponent -beta e_k is not a finite double (beta * E overflowed, or
    every term did) raises ``NonFiniteError``; an exponent that overflows
    to -inf below a finite largest one is a weight of 0. A 2-d ``e`` gives
    one distribution per row; ``g`` (default all ones) holds the
    degeneracies. The weights go into a new array, or into ``out``, a float
    array of ``e``'s shape, by the same operations, so they have the same
    bits either way. Every operation is row by row, so a row's weights do
    not depend on the other rows: ``protocol.simulate`` fills its schedule's
    weights into a small buffer a block of rows at a time this way.
    """
    p, _ = _boltzmann("thermal", e, beta, g, out)
    p /= np.add.reduce(p, -1, keepdims=True)
    return p


def log_partition(e, beta: float, g=None) -> float:
    """ln Z = ln sum_k g_k e^(-beta e_k) of a 1-d ``e``, shifted like
    :func:`thermal`, with its ``NonFiniteError``; ``g`` (default all ones)
    holds the degeneracies."""
    w, top = _boltzmann("log_partition", np.asarray(e, dtype=float), beta, g)
    return float(top + math.log(np.add.reduce(w)))


def require_same_dim(what: str, **dims):
    """Raise ``DimMismatchError`` unless every ``name=dimension`` in ``dims``
    (ints, or shape tuples) is equal; the message names ``what`` and each one."""
    if len(set(dims.values())) > 1:
        listed = ", ".join(f"{name} {dim}" for name, dim in dims.items())
        raise DimMismatchError(f"{what}: dimensions differ ({listed})")


def is_real(x) -> bool:
    """Whether ``x`` is a real number, not a bool, that a range test can compare."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def require_count(name: str, value, least: int) -> int:
    """``value`` as an int, or ``ParameterRangeError`` naming ``name`` unless
    it is an int or a numpy integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterRangeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterRangeError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def require_types(what: str, obj, **kinds):
    """Raise ``StateValidationError`` unless every attribute ``name`` of
    ``obj`` is an instance of ``kinds[name]``; the message names ``what``,
    the attribute and both types."""
    for name, kind in kinds.items():
        value = getattr(obj, name)
        if not isinstance(value, kind):
            raise StateValidationError(
                f"{what}: {name} must be a {kind.__module__}.{kind.__name__}, "
                f"got {type(value).__name__}"
            )


def hermitian_part(a) -> np.ndarray:
    """(A + A^dag)/2 of a square matrix A that is Hermitian within DEFAULT_TOL.

    Raises ``NonSquareError`` on shape mismatch and ``NonHermitianError`` when
    ``||A - A^dag|| > DEFAULT_TOL * ||A||``.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"matrix must be square, got shape {m.shape}")
    scale = max(hs_norm(m), 1e-300)
    defect = hs_norm(m - m.conj().T)
    if defect > DEFAULT_TOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: ||A - A^dag|| = {defect:.3e} "
            f"exceeds {DEFAULT_TOL:g} * ||A|| = {DEFAULT_TOL * scale:.3e}"
        )
    return (m + m.conj().T) / 2.0


def is_unitary(a) -> bool:
    """True iff ``a`` is a d x d matrix with ||a^dag a - 1||_HS <= DEFAULT_TOL *
    sqrt(d); False for a non-square input.

    An entry of modulus above 2 (or a NaN) gives False before a^dag a is
    formed: its column has squared norm above 4, so ||a^dag a - 1|| > 3, and
    a product of entries near ``MAX_ENTRY`` would overflow.
    """
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.abs(m).max(initial=0.0) <= 2.0:
        return False
    d = m.shape[0]
    return hs_norm(m.conj().T @ m - np.eye(d)) <= DEFAULT_TOL * math.sqrt(d)


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` (ascending) and orthonormal eigenvector columns ``v``
    of a Hermitian matrix, as ``np.linalg.eigh`` returns them.

    The input is validated and symmetrised by :func:`hermitian_part` before
    factorisation, so the result is deterministic for identical inputs;
    within numerically degenerate clusters the eigenvector basis is whatever
    the underlying LAPACK routine returns, and callers must not rely on it
    beyond the spanned subspace.
    """
    return np.linalg.eigh(hermitian_part(a))


def eigenvalue_clusters(values: np.ndarray) -> list[np.ndarray]:
    """Group an ascending eigenvalue array into degenerate clusters.

    A new cluster starts whenever the jump to the next eigenvalue exceeds
    ``CLUSTER_GAP * (max(values) - min(values))``, so the grouping changes
    neither with the units of the spectrum nor with its zero. Jumps within
    ``64 * d * eps * max|values|`` (``eps`` the double's machine epsilon) are
    ``eigh`` rounding and never split a level. Returns index arrays into
    ``values``.
    """
    w = np.asarray(values).tolist()
    if not w:
        return []
    tol = max(CLUSTER_GAP * (w[-1] - w[0]),
              64 * len(w) * np.finfo(float).eps * max(abs(w[0]), abs(w[-1])))
    clusters = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > tol:
            clusters.append(np.arange(start, i))
            start = i
    clusters.append(np.arange(start, len(w)))
    return clusters
