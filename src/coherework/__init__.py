"""coherework: work extraction from quantum coherences, end to end.

Density matrices, projection channels and their optimal work, the three-step
rotate/isotherm/quench protocol, smooth min/max relative entropies with the
single-shot consistency check, Jarzynski statistics with measurement
back-action, and correlation-assisted work with an ancilla. A scenario CLI
(`coherework run`) drives the same code from declarative JSON files, and
`coherework self-test` runs the built-in acceptance suite.
"""

__version__ = "0.1.0"

from .correlations import (
    BipartiteState,
    Lemma1Result,
    delta_correlation,
    global_optimal_work,
    local_project,
    verify_lemma1,
)
from .errors import (
    AlphabetTooLargeError,
    ClampRequiredError,
    CohereworkError,
    ConsistencyError,
    DimMismatchError,
    EnergyOutOfRangeError,
    NonFiniteError,
    NonHermitianError,
    NonSquareError,
    NotUnitaryError,
    ParameterRangeError,
    RankError,
    StateValidationError,
    SupportError,
)
from .fluctuation import (
    TrajectoryStats,
    TransitionTable,
    average_unitary_work,
    jarzynski_average,
    projection_heat,
    sample_trajectories,
    transition_table,
)
from .linalg import hs_norm, is_unitary, shannon
from .projection import (
    MaxWorkResult,
    ProjectorSet,
    WorkReport,
    energy_projectors,
    entropy_change_bound,
    max_work_fixed_energy,
    optimal_projection_work,
    overlap_matrix,
    project,
    projection_angle_factor,
)
from .protocol import (
    ProtocolPlan,
    WorkLedger,
    build_plan,
    exact_step_works,
    simulate,
)
from .singleshot import (
    Distribution,
    RatePair,
    consistency_work,
    d_max_eps,
    d_min_eps,
    iid_rate,
    kl_bits,
    smoothing_failure_probability,
)
from .states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    average_energy,
    bloch_qubit,
    free_energy,
    gibbs_state,
    partial_trace,
    purify,
    von_neumann_entropy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
