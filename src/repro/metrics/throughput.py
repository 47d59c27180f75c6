"""Throughput measurement (paper Exps 1-2, Figs. 10-13).

"Throughput is measured as the number of query results returned per
second in a single query environment, while in a multi-query
environment it is measured as the number of slides of a shared
execution plan processed per second."

CPython absolute numbers are far below the paper's C++ platform; the
relative ordering between algorithms — which is what Figs. 10-13
establish — is preserved because all algorithms share the exact same
operator machinery and driver loop (mirroring the paper's "same
codebase" methodology).  The experiments additionally report
per-slide aggregate-operation counts, a runtime-independent measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class ThroughputResult:
    """One throughput measurement."""

    slides: int
    seconds: float

    @property
    def per_second(self) -> float:
        """Results (single-query) or plan slides (multi-query) per second."""
        if self.seconds <= 0:
            return float("inf")
        return self.slides / self.seconds


def measure_single_query(
    make_aggregator: Callable[[], Any],
    values: Sequence[Any],
    repeats: int = 1,
) -> ThroughputResult:
    """Drive a fresh aggregator's ``step`` over ``values``.

    Single- and multi-query aggregators alike: one ``step`` per value,
    one result (or answer map) per slide.  The best of ``repeats`` runs
    is reported, the usual micro-benchmark convention for suppressing
    scheduler noise.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        aggregator = make_aggregator()
        step = aggregator.step
        started = time.perf_counter()
        for value in values:
            step(value)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return ThroughputResult(slides=len(values), seconds=best)
