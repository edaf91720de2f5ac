"""Thermal master equations for discrete quantum systems.

Builds the global (eigenbasis) generator for a system coupled to several
bosonic baths, solves for nonequilibrium steady states and heat currents, and
provides closed-form three-level diagnostics plus an N-site chain model for
studying population migration along thermal gradients.
"""

__version__ = "0.1.0"

from .chain import (
    ChainSpec,
    ExplicitProfile,
    LinearProfile,
    SweepPoint,
    ThermophoresisVerdict,
    chain_system,
    classify,
    default_survey_panels,
    population_sweep,
    site_populations,
)
from .davies import (
    DEFAULT_FREQ_TOL,
    BathSpec,
    FlatDensity,
    Liouvillian,
    OhmicDensity,
    OpenSystem,
    bose_occupation,
    evolve,
    gibbs_state,
    heat_currents,
    liouvillian,
    steady_state,
)
from .errors import (
    AccuracyError,
    AmbiguousGroupingError,
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    InvariantViolationError,
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    QThermoError,
    SolverFailureError,
    UnsupportedModelError,
)
from .linalg import (
    EigenDecomposition,
    devectorize,
    eigh,
    hermitize,
    trace_distance,
    vectorize,
)
from .three_level import (
    LevelPopulations,
    ThermoDiagnostics,
    ThreeLevelParams,
    dufour_currents,
    finite_capacity_heating,
    high_temperature_force,
    lambda_system,
    mean_position_trajectory,
    occupations,
    overdamped_ratio,
    populations_from_state,
    rate_matrix,
    thermo_diagnostics,
    three_level_system,
    vee_system,
)

__all__ = [name for name in dir() if not name.startswith("_")]
