"""Per-answer latency measurement (paper Exp 3, Fig. 14).

"Latency is measured in terms of the total time it took to calculate
and return the answer to each query."  Here that is the wall-clock time
of one ``step`` — from the arrival of the new partial to the answer —
captured with ``time.perf_counter_ns``.

The reported categories replicate Fig. 14: Min, 25th percentile,
Median, Average, 75th percentile, and Max, after dropping the highest
0.005 % of samples as outliers.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, List

from repro.metrics.stats import Summary, drop_top_fraction

#: The paper's outlier trim for Exp 3.
OUTLIER_FRACTION = 0.00005


class LatencyRecorder:
    """Collect per-answer latencies in nanoseconds."""

    def __init__(self) -> None:
        self.samples_ns: List[int] = []

    def record(self, nanoseconds: int) -> None:
        """Append one latency sample."""
        self.samples_ns.append(nanoseconds)

    def timed(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` once, recording its duration."""
        started = time.perf_counter_ns()
        result = fn()
        self.record(time.perf_counter_ns() - started)
        return result

    def summary(
        self, drop_fraction: float = OUTLIER_FRACTION
    ) -> Summary:
        """Fig. 14 categories over the trimmed samples."""
        trimmed = drop_top_fraction(self.samples_ns, drop_fraction)
        return Summary.of(trimmed)


def measure_step_latencies(
    aggregator: Any, values: Iterable[Any]
) -> LatencyRecorder:
    """Time every ``step`` of an aggregator over a stream.

    Single- or multi-query: one sample per slide either way.
    """
    recorder = LatencyRecorder()
    record = recorder.samples_ns.append
    step = aggregator.step
    clock = time.perf_counter_ns
    for value in values:
        started = clock()
        step(value)
        record(clock() - started)
    return recorder
