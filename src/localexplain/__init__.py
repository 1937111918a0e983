"""Local feature-importance explanations with bootstrap uncertainty intervals.

Explains a black-box model from a static dataset of its inputs and outputs:
fits a degree-k polynomial surrogate to the neighborhood of a query point,
reads per-feature importance scores off the surrogate, and quantifies their
uncertainty with percentile-bootstrap intervals built from sub-neighborhood
refits.  A simulation harness measures coverage/width trade-offs against an
analytic ground truth.
"""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapConfig,
    BootstrapDistribution,
    BootstrapError,
    UncertaintyInterval,
    bootstrap_from_problem,
    intervals_from_distribution,
    percentile,
)
from .data import (
    DataError,
    FeatureSchema,
    FeatureSpec,
    QueryDataset,
    StandardizationStats,
    from_log_odds,
    load_dataset,
    standardize,
    to_log_odds,
)
from .explain import (
    ExplainConfig,
    ExplainError,
    ImportanceScore,
    LocalProblem,
    NaiveInterval,
    build_problem,
)
from .neighborhood import (
    BalanceError,
    Neighborhood,
    QueryPoint,
    compute_weights,
    select_neighborhood,
)
from .polyfit import (
    FitError,
    MonomialBasis,
    PointFit,
    expand_basis,
)
from .sim import (
    SweepGrid,
    SweepRecord,
    generate_dataset,
    ground_truth_gradient,
    ground_truth_value,
    pareto_frontier,
    run_sweep,
)

__all__ = [
    "BalanceError",
    "BootstrapConfig",
    "BootstrapDistribution",
    "BootstrapError",
    "DataError",
    "ExplainConfig",
    "ExplainError",
    "FeatureSchema",
    "FeatureSpec",
    "FitError",
    "ImportanceScore",
    "LocalProblem",
    "MonomialBasis",
    "NaiveInterval",
    "Neighborhood",
    "PointFit",
    "QueryDataset",
    "QueryPoint",
    "StandardizationStats",
    "SweepGrid",
    "SweepRecord",
    "UncertaintyInterval",
    "bootstrap_from_problem",
    "build_problem",
    "compute_weights",
    "expand_basis",
    "from_log_odds",
    "generate_dataset",
    "ground_truth_gradient",
    "ground_truth_value",
    "intervals_from_distribution",
    "load_dataset",
    "pareto_frontier",
    "percentile",
    "run_sweep",
    "select_neighborhood",
    "standardize",
    "to_log_odds",
]
