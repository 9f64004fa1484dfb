"""Oblivious key-value store with a scanned log, hashed levels, and seeded rebuilds.

The public surface: PyramidOram plus its config for storage, Zht and
oblivious_build for standalone table work, TraceRecorder and shapes_equal for
access-pattern inspection, and the analysis module's bounds and Monte
Carlo estimators.
"""

from .analysis import (
    BoundReport,
    CostModel,
    DecayReport,
    SpillStats,
    StageSpillReport,
    bounds_report,
    bucket_overflow_prob_bound,
    bucket_overflow_prob_bound_exact,
    cost_model,
    decay_check,
    expected_spill_bound,
    expected_spill_bound_exact,
    mc_prn_stage_spill,
    mc_throw_spill,
    zigzag_failure_union_bound,
)
from .core import (
    DEFAULT_PAYLOAD_SIZE,
    KEY_SENTINEL,
    MAX_REAL_KEY,
    BuildFailedError,
    CapacityExceededError,
    HashFamily,
    InsufficientDataError,
    InvalidParameterError,
    OramError,
    Rng,
    SlotArray,
    StoreBrokenError,
    set_debug_checks,
)
from .ozht import BuildReport, build_access_count, oblivious_build
from .prn import RouteStats, repartition, route, route_reference, stage_pairs
from .pyramid import (
    AccessRecord,
    LevelParams,
    PyramidConfig,
    PyramidOram,
    RebuildInfo,
    default_k,
    level_occupied,
    online_cost,
    rebuild_target,
)
from .trace import (
    ChiSquareResult,
    TraceRecorder,
    chi_square_uniform,
    shapes_equal,
    table_region,
)
from .zht import Zht

__version__ = "0.1.0"

__all__ = [
    "AccessRecord",
    "BoundReport",
    "BuildFailedError",
    "BuildReport",
    "CapacityExceededError",
    "ChiSquareResult",
    "CostModel",
    "DecayReport",
    "DEFAULT_PAYLOAD_SIZE",
    "HashFamily",
    "InsufficientDataError",
    "InvalidParameterError",
    "KEY_SENTINEL",
    "LevelParams",
    "MAX_REAL_KEY",
    "OramError",
    "PyramidConfig",
    "PyramidOram",
    "RebuildInfo",
    "Rng",
    "RouteStats",
    "SlotArray",
    "SpillStats",
    "StageSpillReport",
    "StoreBrokenError",
    "TraceRecorder",
    "Zht",
    "bounds_report",
    "bucket_overflow_prob_bound",
    "bucket_overflow_prob_bound_exact",
    "build_access_count",
    "chi_square_uniform",
    "cost_model",
    "decay_check",
    "default_k",
    "expected_spill_bound",
    "expected_spill_bound_exact",
    "level_occupied",
    "mc_prn_stage_spill",
    "mc_throw_spill",
    "oblivious_build",
    "online_cost",
    "rebuild_target",
    "repartition",
    "route",
    "route_reference",
    "set_debug_checks",
    "shapes_equal",
    "stage_pairs",
    "table_region",
    "zigzag_failure_union_bound",
]
