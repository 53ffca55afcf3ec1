"""Library inputs outside their documented range end in a typed
``CohereworkError``: no numpy warning and no untyped numpy error on the way."""

import math
import warnings

import numpy as np
import pytest

from coherework.correlations import BipartiteState
from coherework.errors import (CohereworkError, NonFiniteError, NonSquareError,
                               ParameterRangeError, StateValidationError)
from coherework.fluctuation import sample_trajectories, transition_table
from coherework.projection import ProjectorSet
from coherework.protocol import build_plan, simulate
from coherework.singleshot import Distribution, consistency_work, d_min_eps, iid_rate
from coherework.states import (DensityMatrix, Hamiltonian, Temperature, bloch_qubit,
                               partial_trace)

_H = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
_T = Temperature(beta=1.0)
_RHO = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
_U = Distribution(np.array([0.5, 0.5]))
_RHO4 = DensityMatrix(np.eye(4, dtype=complex) / 4)

_TABLE = transition_table(_H, _H, np.eye(2, dtype=complex), _T)

# one call per range or type check, each one step outside what it accepts;
# the parameter's name leads the label and the error names it
_OUT_OF_RANGE = {
    "purity_clamp": lambda: build_plan(_RHO, _H, _T, purity_clamp=1.0),
    "quasi_static_steps": lambda: simulate(build_plan(_RHO, _H, _T), 0),
    "quasi_static_steps 2.7": lambda: simulate(build_plan(_RHO, _H, _T), 2.7),
    "quasi_static_steps inf": lambda: simulate(build_plan(_RHO, _H, _T), math.inf),
    "quasi_static_steps None": lambda: simulate(build_plan(_RHO, _H, _T), None),
    "quasi_static_steps True": lambda: simulate(build_plan(_RHO, _H, _T), True),
    "n_samples": lambda: sample_trajectories(_TABLE, 0, 1),
    "n_samples 10.9": lambda: sample_trajectories(_TABLE, 10.9, 1),
    "seed -1": lambda: sample_trajectories(_TABLE, 10, -1),
    "seed 1.5": lambda: sample_trajectories(_TABLE, 10, 1.5),
    "eps": lambda: d_min_eps(_U, _U, 1.0),
    "eps 'x'": lambda: iid_rate(_U, _U, "x", 2),
    "n_copies": lambda: iid_rate(_U, _U, 0.1, 0),
    "n_copies 2.5": lambda: iid_rate(_U, _U, 0.1, 2.5),
    "n_copies inf": lambda: consistency_work(build_plan(_RHO, _H, _T), 0.1, math.inf),
    "keep": lambda: partial_trace(_RHO4, (2, 2), 2),
    "keep True": lambda: partial_trace(_RHO4, (2, 2), True),
    "dims 'a'": lambda: partial_trace(_RHO4, ("a", 2), 0),
    "dim_s 2.0": lambda: BipartiteState(_RHO4, 2.0, 2),
    "dim_s '2'": lambda: BipartiteState(_RHO4, "2", 2),
    "dim_a 2.0": lambda: BipartiteState(_RHO4, 2, 2.0),
    # beta, a and theta are a state's parameters: a non-number is a
    # StateValidationError, or for theta, which may be any finite number, a
    # NonFiniteError
    "beta '1'": lambda: Temperature(beta="1"),
    "beta True": lambda: Temperature(beta=True),
    "a 'x'": lambda: bloch_qubit("x", 0.1),
    "a True": lambda: bloch_qubit(True, 0.1),
    "theta 'x'": lambda: bloch_qubit(0.5, "x"),
}
_STATE_PARAMETERS = {"beta": StateValidationError, "a": StateValidationError,
                     "theta": NonFiniteError}


@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
def test_out_of_range_parameter_is_typed(name):
    param = name.split()[0]
    error = _STATE_PARAMETERS.get(param, ParameterRangeError)
    with pytest.raises(error, match=param) as info:
        _OUT_OF_RANGE[name]()
    assert isinstance(info.value, CohereworkError)
    if error is ParameterRangeError:  # still the ValueError numeric code raises for a bad value
        assert isinstance(info.value, ValueError)


def test_normalising_all_zero_weights_names_the_zero_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateValidationError, match="sum to 0"):
            Distribution.normalized([0.0, 0.0])


def test_empty_hamiltonian_is_rejected_at_construction():
    with pytest.raises(StateValidationError, match="at least one level"):
        Hamiltonian(np.zeros((0, 0)))


# one call per malformed matrix or array argument, with the error it raises
_MALFORMED = {
    "DensityMatrix of a string": (StateValidationError, lambda: DensityMatrix("abc")),
    "Hamiltonian of a string": (StateValidationError, lambda: Hamiltonian("abc")),
    "transition_table with a string V": (
        StateValidationError, lambda: transition_table(_H, _H, "ab", _T)),
    # DensityMatrix words every shape error as a StateValidationError
    "DensityMatrix of ragged rows": (StateValidationError,
                                     lambda: DensityMatrix([[1, 0], [0]])),
    "Hamiltonian of ragged rows": (NonSquareError, lambda: Hamiltonian([[1, 0], [0]])),
    "ProjectorSet with a fractional cluster entry": (
        StateValidationError, lambda: ProjectorSet(np.eye(2), [[0.5], [1]])),
    "ProjectorSet with a string cluster entry": (
        StateValidationError, lambda: ProjectorSet(np.eye(2), [["a"], [1]])),
    "Distribution of strings": (StateValidationError, lambda: Distribution(["a", "b"])),
    "Distribution.normalized of a string": (StateValidationError,
                                            lambda: Distribution.normalized(["a"])),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_argument_is_one_typed_error(name):
    error, call = _MALFORMED[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()
