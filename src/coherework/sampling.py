"""Seeded random instances for property sweeps, tests, and scenario files."""

from __future__ import annotations

import numpy as np

from .correlations import BipartiteState
from .errors import StateValidationError
from .projection import ProjectorSet
from .states import DensityMatrix, Hamiltonian


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_hamiltonian(dim: int, rng: np.random.Generator) -> Hamiltonian:
    return Hamiltonian._trusted(random_hermitian(dim, rng))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary from the eigenbasis of a random Hermitian generator."""
    return np.linalg.eigh(random_hermitian(dim, rng))[1]


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank state from a complex Ginibre factor."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix._trusted(m / np.trace(m).real)


def random_projector_set(dim: int, rng: np.random.Generator) -> ProjectorSet:
    """Complete rank-1 family from a random unitary's columns."""
    if dim < 1:
        raise StateValidationError(f"random_projector_set: needs at least one column, got {dim!r}")
    return ProjectorSet._trusted(random_unitary(dim, rng), tuple(np.arange(dim)[:, None]))


def random_bipartite_state(dim_s: int, dim_a: int, rng: np.random.Generator) -> BipartiteState:
    rho = random_density_matrix(dim_s * dim_a, rng)
    return BipartiteState(rho_sa=rho, dim_s=dim_s, dim_a=dim_a)

