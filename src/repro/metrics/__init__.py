"""Measurement harness: throughput, latency, memory, operation counts.

The four evaluation metrics of paper Section 5.1, adapted to Python as
documented in DESIGN.md (logical memory words instead of RSS; operation
counts as the runtime-independent complement to wall-clock throughput).
"""

from repro.metrics.latency import (
    OUTLIER_FRACTION,
    LatencyRecorder,
    measure_step_latencies,
)
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
from repro.metrics.throughput import (
    ThroughputResult,
    measure_single_query,
)

__all__ = [
    "LatencyRecorder",
    "measure_step_latencies",
    "OUTLIER_FRACTION",
    "MemoryResult",
    "measure_memory",
    "peak_memory_words",
    "OpCountResult",
    "count_ops",
    "count_ops_single",
    "ThroughputResult",
    "measure_single_query",
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
