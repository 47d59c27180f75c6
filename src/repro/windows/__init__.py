"""Windows substrate: ACQ specs, slicing (PATs), and shared plans.

Implements paper Sections 2.1 (Panes / Pairs / Cutty partial
aggregation) and 2.3 (shared processing of ACQs via LCM composite
slides), plus the partial aggregator that feeds final aggregation.
"""

from repro.windows.compatibility import (
    AcqSpec,
    CompatibleSharedEngine,
    SharingPlan,
    build_sharing_plan,
    distributive_components,
)
from repro.windows.partial import CompletedPartial, PartialAggregator
from repro.windows.timebased import (
    TimeQuery,
    TimeWindowEngine,
    slice_duration,
)
from repro.windows.plan import (
    PlanStep,
    ScheduledQuery,
    SharedPlan,
    build_shared_plan,
)
from repro.windows.query import Query, max_range
from repro.windows.slicing import (
    ALL_TECHNIQUES,
    CUTTY,
    PAIRS,
    PANES,
    composite_slide,
    cutty_edges,
    edges_for,
    pairs_edges,
    panes_edges,
    partial_lengths,
    punctuation_count,
)

__all__ = [
    "Query",
    "max_range",
    "PANES",
    "PAIRS",
    "CUTTY",
    "ALL_TECHNIQUES",
    "composite_slide",
    "panes_edges",
    "pairs_edges",
    "cutty_edges",
    "edges_for",
    "partial_lengths",
    "punctuation_count",
    "SharedPlan",
    "PlanStep",
    "ScheduledQuery",
    "build_shared_plan",
    "CompletedPartial",
    "PartialAggregator",
    "TimeQuery",
    "TimeWindowEngine",
    "slice_duration",
    "AcqSpec",
    "SharingPlan",
    "build_sharing_plan",
    "distributive_components",
    "CompatibleSharedEngine",
]
