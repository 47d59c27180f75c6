"""Windows substrate: ACQ specs, slicing (PATs), and shared plans.

Implements paper Sections 2.1 (Panes / Pairs / Cutty partial
aggregation) and 2.3 (shared processing of ACQs via LCM composite
slides), plus the partial aggregator that feeds final aggregation.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".compatibility": (
        "AcqSpec",
        "CompatibleSharedEngine",
        "SharingPlan",
        "build_sharing_plan",
        "distributive_components",
    ),
    ".partial": ("CompletedPartial", "PartialAggregator"),
    ".timebased": ("TimeQuery", "TimeWindowEngine", "slice_duration"),
    ".plan": ("PlanStep", "ScheduledQuery", "SharedPlan", "build_shared_plan"),
    ".query": ("Query", "max_range"),
    ".slicing": (
        "ALL_TECHNIQUES",
        "CUTTY",
        "PAIRS",
        "PANES",
        "composite_slide",
        "cutty_edges",
        "edges_for",
        "pairs_edges",
        "panes_edges",
        "partial_lengths",
        "punctuation_count",
    ),
})
