"""Time-series aggregation into weighted typical periods with segments."""

from .core import (
    build_frame,
    denormalize,
    normalize,
    to_periods,
    validate_and_build,
)
from .errors import ConfigError, DataError
from .hierarchy import Linkage, ward_linkage
from .metrics import (
    attribute_rmse,
    build_report,
    duration_curve_rmse,
    reconstruct,
    rmse_tot,
)
from .pathway import (
    ConfigEvaluator,
    PathwayState,
    build_grid,
    pathway_search,
    select_config,
)
from .representation import represent

__all__ = [
    "ConfigError",
    "ConfigEvaluator",
    "DataError",
    "Linkage",
    "PathwayState",
    "attribute_rmse",
    "build_frame",
    "build_grid",
    "build_report",
    "denormalize",
    "duration_curve_rmse",
    "normalize",
    "pathway_search",
    "reconstruct",
    "represent",
    "rmse_tot",
    "select_config",
    "to_periods",
    "validate_and_build",
    "ward_linkage",
]
