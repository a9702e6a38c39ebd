"""Exact Frechet mean sets over bounded finite (pseudo-)metric spaces.

The package computes sample and population Frechet mean *sets* (all ties,
never a single representative) and variances of arbitrary order r >= 1,
their restricted variants, set-sequence limit estimators, and a seeded
Monte Carlo harness for consistency experiments.  The flagship space is the
set of labeled simple graphs on a fixed vertex count under the Hamming
metric, where every comparison runs in exact integer arithmetic.
"""

__version__ = "0.1.0"

from .metric_core import (
    AxiomReport,
    AxiomViolation,
    DiscreteMeasure,
    MetricSpace,
    Sample,
    check_metric_axioms,
    check_order,
    equicontinuity_bound,
    interval_grid,
    modulus_of_continuity,
    population_functional,
    power_gamma,
    sample_functional,
)
from .graph_space import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    Graph,
    GraphParseError,
    GraphSpaceConfig,
    enumerate_space,
    format_graph,
    graph_subspace,
    parse_graph,
    read_graph_file,
    read_graph_lines,
)
from .frechet_solver import (
    FLOAT_TIE_RTOL,
    MeanSetResult,
    population_mean_set,
    restricted_population_mean_set,
    restricted_sample_mean_set,
    sample_mean_set,
)
from .set_limits import (
    OuterLimitEstimate,
    SetTrajectory,
    default_burn_in,
    kuratowski_limsup,
    tail_limsup,
    ziezold_limcsup,
)
from .consistency_lab import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    GraphSpec,
    GridSpec,
    LimitParams,
    OscillationTable,
    TrajectoryRecord,
    build_space,
    event_contains,
    event_full_space,
    oscillation_stats,
    run_consistency_experiment,
    sample_iid,
)
