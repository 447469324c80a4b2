"""dispatchlab: exact and simulated analysis of grid rideshare dispatch chains.

The package models a fleet of identical drivers on a rectangular grid of
locations serving one-round trips.  It builds the induced Markov chains
exactly (transition matrices, stationary distributions, mixing curves,
coupling certificates), runs seeded Monte-Carlo convergence experiments,
solves small instances to optimality by value iteration, and ingests
trip-record CSVs into arrival models or per-second replay traces.
"""

__version__ = "0.1.0"

from .chain import (
    MixingReport,
    StationaryResult,
    TransitionMatrix,
    build_occupancy_pair_chain,
    build_transition,
    check_aperiodic,
    check_irreducible,
    exact_error_curves,
    limiting_objective,
    mixing_analysis,
    stationary_distribution,
    uniform_closed_form_objective,
)
from .coupling import CouplingReport, verify_contraction
from .errors import (
    ContractionFailure,
    DispatchLabError,
    FitFailureError,
    HorizonTooShortError,
    InfeasibleInstanceError,
    IterationLimitError,
    OutOfScopeError,
    SchemaError,
    SizeLimitError,
)
from .grid import (
    Grid,
    RequestModel,
    build_grid,
    distance_weights,
    manhattan_distance,
    uniform_request_model,
)
from .ingest import (
    TripTable,
    build_replay,
    estimate_rates,
    filter_bbox,
    make_fixture,
    parse_trips,
    segment_by_time,
    subsample_cars,
)
from .mdp import MdpInstance, OccupancyReport, ViResult, value_iteration
from .policies import PolicySpec, parse_policy
from .simulate import (
    ErrorSeries,
    ReplayTrace,
    SimConfig,
    error_curves,
    fit_exponential,
    fit_inverse,
    run_ensemble,
)
from .states import StateSpace

__all__ = [
    "__version__",
    "ContractionFailure",
    "CouplingReport",
    "DispatchLabError",
    "ErrorSeries",
    "FitFailureError",
    "Grid",
    "HorizonTooShortError",
    "InfeasibleInstanceError",
    "IterationLimitError",
    "MdpInstance",
    "MixingReport",
    "OccupancyReport",
    "OutOfScopeError",
    "PolicySpec",
    "ReplayTrace",
    "RequestModel",
    "SchemaError",
    "SimConfig",
    "SizeLimitError",
    "StateSpace",
    "StationaryResult",
    "TransitionMatrix",
    "TripTable",
    "ViResult",
    "build_grid",
    "build_occupancy_pair_chain",
    "build_replay",
    "build_transition",
    "check_aperiodic",
    "check_irreducible",
    "distance_weights",
    "error_curves",
    "estimate_rates",
    "exact_error_curves",
    "filter_bbox",
    "fit_exponential",
    "fit_inverse",
    "limiting_objective",
    "make_fixture",
    "manhattan_distance",
    "mixing_analysis",
    "parse_policy",
    "parse_trips",
    "run_ensemble",
    "segment_by_time",
    "stationary_distribution",
    "subsample_cars",
    "uniform_closed_form_objective",
    "uniform_request_model",
    "value_iteration",
    "verify_contraction",
]
