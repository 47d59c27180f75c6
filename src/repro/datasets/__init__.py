"""Workload generators: DEBS12-style, synthetic, and adversarial."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".adversarial": (
        "ascending_stream",
        "deque_filler",
        "descending_stream",
        "worst_case_slide_ops",
    ),
    ".debs12": (
        "SAMPLE_RATE_HZ",
        "STATE_FIELDS",
        "Debs12Generator",
        "debs12_array",
        "debs12_events",
        "debs12_values",
    ),
    ".synthetic": (
        "ascending",
        "constant",
        "descending",
        "gaussian",
        "materialise",
        "sawtooth",
        "uniform",
        "uniform_ints",
    ),
})
