"""Measurements: operation counts, memory, spikes, growth classes, stats.

The runtime-independent metrics of paper Section 5.1, adapted to
Python as documented in DESIGN.md (logical memory words instead of
RSS; operation counts as the complement to wall-clock throughput).
The wall-clock drivers live with the paper harness in
``benchmarks/paper/measures.py``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".memory": ("MemoryResult", "measure_memory", "peak_memory_words"),
    ".opcount": ("OpCountResult", "count_ops", "count_ops_single"),
    ".complexity_fit": (
        "ComplexityFit",
        "classify_algorithm_space",
        "classify_algorithm_time",
        "classify_growth",
    ),
    ".spikes": (
        "SpikeProfile",
        "dominant_period",
        "flip_period",
        "spike_gaps",
        "spike_positions",
    ),
    ".stats": (
        "Reservoir",
        "Summary",
        "drop_top_fraction",
        "geometric_mean",
        "maybe_summary",
        "percentile",
        "ratio",
    ),
    ".throughput": ("ThroughputResult",),
})
