"""Seeded random instances for property sweeps, tests, and scenario files."""

from __future__ import annotations

import numpy as np

from .correlations import BipartiteState
from .linalg import hermitian_eig
from .projection import ProjectorSet
from .states import DensityMatrix, Hamiltonian


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_hamiltonian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> Hamiltonian:
    return Hamiltonian(random_hermitian(dim, rng, scale))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary from the eigenbasis of a random Hermitian generator."""
    return hermitian_eig(random_hermitian(dim, rng)).eigenvectors


def random_density_matrix(dim: int, rng: np.random.Generator,
                          rank: int | None = None) -> DensityMatrix:
    """Full-rank (or fixed-rank) state from a complex Ginibre factor."""
    r = rank if rank is not None else dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_projector_set(dim: int, rng: np.random.Generator) -> ProjectorSet:
    """Complete rank-1 family from a random unitary's columns."""
    return ProjectorSet.from_basis(random_unitary(dim, rng))


def random_bipartite_state(dim_s: int, dim_a: int, rng: np.random.Generator,
                           rank: int | None = None) -> BipartiteState:
    rho = random_density_matrix(dim_s * dim_a, rng, rank=rank)
    return BipartiteState(rho_sa=rho, dim_s=dim_s, dim_a=dim_a)

