"""The compared final-aggregation algorithms (paper Section 2.2).

Every algorithm of the paper's evaluation — Naive, FlatFAT, B-Int,
FlatFIT, TwoStacks, DABA — plus the from-scratch Recalc oracle used by
the test suite.  SlickDeque itself lives in :mod:`repro.core`.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".base": (
        "MultiQueryAggregator",
        "SlidingAggregator",
        "fold_seeded",
        "validate_ranges",
        "validate_window",
    ),
    ".bint": ("BIntAggregator", "BIntMultiAggregator"),
    ".daba": ("DABAAggregator",),
    ".flatfat": ("FlatFATAggregator", "FlatFATMultiAggregator"),
    ".flatfit": ("FlatFITAggregator", "FlatFITMultiAggregator"),
    ".naive": ("NaiveAggregator", "NaiveMultiAggregator"),
    ".panes_inv": ("PanesInvAggregator", "SubtractOnEvictAggregator"),
    ".recalc": ("RecalcAggregator", "RecalcMultiAggregator"),
    ".twostacks": ("TwoStacksAggregator",),
})
