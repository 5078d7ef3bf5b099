"""Deterministic epsilon-approximation summaries for planar point streams.

Feed points to a `StreamState`, take `Snapshot`s at any moment, and answer
range-counting queries or compute robust statistics from them.  Everything
is exact: integer-scaled coordinates, rational weights, and certified error
bounds measured (not merely proved) during construction.
"""

from .engine import (
    EngineConfig,
    MemoryFootprint,
    Snapshot,
    StreamState,
    error_budget,
    insert,
    make_config,
    memory_footprint,
    snapshot,
    snapshot_of_exact,
)
from .queries import CountEstimate, Verdict, approx_count, eps_net, iceberg_query
from .ranges import (
    FamilyKind,
    Point2,
    RangeFamily,
    Turn,
    canonical_ranges,
    contains,
    family,
    orient,
    parse_descriptor,
    parse_point,
    subsystem_oracle,
)
from .sampler import (
    Coloring,
    WeightedSample,
    halve,
    low_discrepancy_coloring,
    static_eps_approx,
    verify_approximation,
    weighted_eps_approx,
)

__all__ = [
    "Coloring",
    "CountEstimate",
    "EngineConfig",
    "FamilyKind",
    "MemoryFootprint",
    "Point2",
    "RangeFamily",
    "Snapshot",
    "StreamState",
    "Turn",
    "Verdict",
    "WeightedSample",
    "approx_count",
    "canonical_ranges",
    "contains",
    "eps_net",
    "error_budget",
    "family",
    "halve",
    "iceberg_query",
    "insert",
    "low_discrepancy_coloring",
    "make_config",
    "memory_footprint",
    "orient",
    "parse_descriptor",
    "parse_point",
    "snapshot",
    "snapshot_of_exact",
    "static_eps_approx",
    "subsystem_oracle",
    "verify_approximation",
    "weighted_eps_approx",
]
