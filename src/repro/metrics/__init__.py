"""Measurements: operation counts, memory, spikes, growth classes, stats.

The runtime-independent metrics of paper Section 5.1, adapted to
Python as documented in DESIGN.md (logical memory words instead of
RSS; operation counts as the complement to wall-clock throughput).
The wall-clock drivers live with the paper harness in
``benchmarks/paper/measures.py``.
"""

from repro.metrics.memory import (
    MemoryResult,
    measure_memory,
    peak_memory_words,
)
from repro.metrics.opcount import OpCountResult, count_ops, count_ops_single
from repro.metrics.complexity_fit import (
    ComplexityFit,
    classify_algorithm_space,
    classify_algorithm_time,
    classify_growth,
)
from repro.metrics.spikes import (
    SpikeProfile,
    dominant_period,
    flip_period,
    spike_gaps,
    spike_positions,
)
from repro.metrics.stats import (
    Reservoir,
    Summary,
    drop_top_fraction,
    geometric_mean,
    maybe_summary,
    percentile,
    ratio,
)
from repro.metrics.throughput import ThroughputResult

__all__ = [
    "MemoryResult",
    "measure_memory",
    "peak_memory_words",
    "OpCountResult",
    "count_ops",
    "count_ops_single",
    "ThroughputResult",
    "Reservoir",
    "Summary",
    "maybe_summary",
    "percentile",
    "drop_top_fraction",
    "geometric_mean",
    "ratio",
    "ComplexityFit",
    "classify_growth",
    "classify_algorithm_time",
    "classify_algorithm_space",
    "SpikeProfile",
    "spike_positions",
    "spike_gaps",
    "dominant_period",
    "flip_period",
]
