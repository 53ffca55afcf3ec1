"""Library inputs outside their documented range end in a typed
``CohereworkError``: no numpy warning and no untyped numpy error on the way."""

import warnings

import numpy as np
import pytest

from coherework.errors import CohereworkError, ParameterRangeError, StateValidationError
from coherework.fluctuation import sample_trajectories, transition_table
from coherework.protocol import build_plan, simulate
from coherework.singleshot import Distribution, d_min_eps, iid_rate
from coherework.states import DensityMatrix, Hamiltonian, Temperature, partial_trace

_H = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
_T = Temperature(beta=1.0)
_RHO = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
_U = Distribution(np.array([0.5, 0.5]))

# one call per range check, each one step outside its range
_OUT_OF_RANGE = {
    "purity_clamp": lambda: build_plan(_RHO, _H, _T, purity_clamp=1.0),
    "quasi_static_steps": lambda: simulate(build_plan(_RHO, _H, _T), 0),
    "n_samples": lambda: sample_trajectories(
        transition_table(_H, _H, np.eye(2, dtype=complex), _T), 0, 1),
    "eps": lambda: d_min_eps(_U, _U, 1.0),
    "n_copies": lambda: iid_rate(_U, _U, 0.1, 0),
    "keep": lambda: partial_trace(DensityMatrix(np.eye(4, dtype=complex) / 4), (2, 2), 2),
}


@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
def test_out_of_range_parameter_is_typed(name):
    with pytest.raises(ParameterRangeError, match=name) as info:
        _OUT_OF_RANGE[name]()
    # still the ValueError numeric code raises for a bad value
    assert isinstance(info.value, CohereworkError) and isinstance(info.value, ValueError)


def test_normalising_all_zero_weights_names_the_zero_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateValidationError, match="sum to 0"):
            Distribution.normalized([0.0, 0.0])


def test_empty_hamiltonian_is_rejected_at_construction():
    with pytest.raises(StateValidationError, match="at least one level"):
        Hamiltonian(np.zeros((0, 0)))
