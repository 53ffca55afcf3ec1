"""A NaN or infinite value at any position of otherwise valid input makes
every public constructor raise a ``CohereworkError``; so does a matrix entry
beyond ``linalg.MAX_ENTRY``."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherework.correlations import BipartiteState
from coherework.errors import CohereworkError, NonFiniteError
from coherework.fluctuation import TransitionTable
from coherework.linalg import MAX_ENTRY
from coherework.projection import ProjectorSet
from coherework.singleshot import Distribution
from coherework.states import DensityMatrix, Hamiltonian, Temperature

_ROTATION = np.array([[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]], dtype=complex)


def _spoiled(values, bad, pos: int, imag: bool = False):
    """``values`` as a new array whose entry ``pos`` (modulo its size) is set
    to ``bad``, in the imaginary part when ``imag``; unchanged for None."""
    a = np.array(values, dtype=complex if imag else None)
    if bad is not None:
        flat = a.reshape(-1)
        k = pos % flat.size
        flat[k] = complex(flat[k].real, bad) if imag else bad
    return a


def _transition_table(bad, pos, imag):
    # every field is derived; V is the one input that is not a checked object
    return TransitionTable(Hamiltonian(np.diag([0.0, 1.0, 2.0])),
                           Hamiltonian(np.diag([0.5, 1.5, 3.0])),
                           _spoiled(_ROTATION, bad, pos, imag), Temperature(beta=0.7))


def _bipartite_state(bad, pos, imag):
    dims = _spoiled([2.0, 2.0], bad, pos)
    return BipartiteState(rho_sa=DensityMatrix(np.eye(4) / 4), dim_s=dims[0], dim_a=dims[1])


CONSTRUCTORS = {
    "Temperature": lambda bad, pos, imag: Temperature(beta=_spoiled(0.5, bad, pos).item()),
    "DensityMatrix": lambda bad, pos, imag: DensityMatrix(
        _spoiled(np.eye(3) / 3, bad, pos, imag)),
    "Hamiltonian": lambda bad, pos, imag: Hamiltonian(
        _spoiled(np.diag([0.0, 1.0, 2.0]), bad, pos, imag)),
    "ProjectorSet": lambda bad, pos, imag: ProjectorSet(
        _spoiled(_ROTATION, bad, pos, imag), [[0, 2], [1]]),
    "ProjectorSet.from_basis": lambda bad, pos, imag: ProjectorSet.from_basis(
        _spoiled(_ROTATION, bad, pos, imag)),
    "Distribution": lambda bad, pos, imag: Distribution(_spoiled([0.2, 0.3, 0.5], bad, pos)),
    "TransitionTable": _transition_table,
    "BipartiteState": _bipartite_state,
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_unspoiled_input_is_valid(name):
    CONSTRUCTORS[name](None, 0, False)


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@settings(max_examples=40, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       pos=st.integers(0, 100), imag=st.booleans())
def test_non_finite_entry_raises_typed_error(name, bad, pos, imag):
    with pytest.raises(CohereworkError):
        CONSTRUCTORS[name](bad, pos, imag)


@pytest.mark.parametrize("name", ["DensityMatrix", "Hamiltonian", "ProjectorSet",
                                  "ProjectorSet.from_basis", "TransitionTable"])
@settings(max_examples=40, deadline=None)
@given(huge=st.floats(min_value=MAX_ENTRY, max_value=1.7e308, exclude_min=True),
       sign=st.sampled_from([1.0, -1.0]), pos=st.integers(0, 100), imag=st.booleans())
def test_huge_matrix_entry_raises_non_finite_error(name, huge, sign, pos, imag):
    # norms and eigensolvers overflow beyond the bound: no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            CONSTRUCTORS[name](sign * huge, pos, imag)
