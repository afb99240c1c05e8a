"""Change-point localization in discrete-time self-exciting Poisson processes.

The pipeline: simulate piecewise-stationary count series (`sim`), fit
constrained l1-penalized Poisson likelihoods on intervals (`glm`), minimize
the penalized partition objective exactly by dynamic programming (`detect`)
and score estimates against the truth (`metrics`).  The `cli` module wires
the stages together behind stable file formats.
"""

from .core import (
    ChangePointSet,
    CoefficientSequence,
    DataError,
    EventSeries,
    Interval,
    ModelConfig,
    SolverFailure,
    change_points_of,
    induced_partition,
    min_spacing_and_jump,
)
from .detect import (
    CostCache,
    DetectionReport,
    DetectOptions,
    default_tuning,
    detect,
)
from .glm import (
    SegmentFit,
    SolverOptions,
    design_function,
    fit_interval,
    nll,
    nll_gradient,
    prox,
)
from .metrics import EvalResult, aggregate, evaluate, hausdorff, k_error, mean_se, one_sided
from .sim import (
    ScenarioSpec,
    build_scenario,
    generate_series,
    next_column,
    union_support_size,
)

__version__ = "0.1.0"

__all__ = [
    "ChangePointSet",
    "CoefficientSequence",
    "CostCache",
    "DataError",
    "DetectOptions",
    "DetectionReport",
    "EvalResult",
    "EventSeries",
    "Interval",
    "ModelConfig",
    "ScenarioSpec",
    "SegmentFit",
    "SolverFailure",
    "SolverOptions",
    "aggregate",
    "build_scenario",
    "change_points_of",
    "default_tuning",
    "design_function",
    "detect",
    "evaluate",
    "fit_interval",
    "generate_series",
    "hausdorff",
    "induced_partition",
    "k_error",
    "mean_se",
    "min_spacing_and_jump",
    "next_column",
    "nll",
    "nll_gradient",
    "one_sided",
    "prox",
    "union_support_size",
]
