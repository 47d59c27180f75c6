"""Stream recipes and the two timing drivers every paper sweep shares.

* :func:`measure_throughput` — slides per second of a fresh
  aggregator's ``step`` over a stream (Figs. 10-13, Exp 5).  "Throughput
  is measured as the number of query results returned per second in a
  single query environment, while in a multi-query environment it is
  measured as the number of slides of a shared execution plan processed
  per second."
* :func:`measure_step_latencies` — the wall-clock time of every
  ``step`` (Fig. 14): "the total time it took to calculate and return
  the answer to each query", summarised in the figure's categories
  after dropping the highest 0.005 % of samples.

Both drivers pause the cyclic garbage collector while they time; the
policy and its reason are stated once, in EXPERIMENTS.md ("Timing").
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.datasets.debs12 import debs12_array
from repro.datasets.synthetic import materialise, uniform
from repro.metrics.stats import Summary, drop_top_fraction
from repro.metrics.throughput import ThroughputResult

#: The paper's outlier trim for Exp 3.
OUTLIER_FRACTION = 0.00005


@lru_cache(maxsize=8)
def energy(
    length: int, seed: int, readings: int = 1
) -> Tuple[Tuple[float, ...], ...]:
    """``readings`` DEBS12 energy streams of ``length`` tuples.

    The paper averages "three different energy readings" (§5.2); the
    streams are immutable, so sweeps share one materialisation.
    """
    return tuple(
        tuple(debs12_array(length, reading=r, seed=seed))
        for r in range(readings)
    )


@lru_cache(maxsize=8)
def random_stream(length: int, seed: int) -> Tuple[float, ...]:
    """A uniform-random stream (Table 1's "random input")."""
    return tuple(materialise(uniform(length, seed=seed)))


@contextmanager
def _gc_paused() -> Iterator[None]:
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def measure_throughput(
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
        step = make_aggregator().step
        with _gc_paused():
            started = time.perf_counter()
            for value in values:
                step(value)
            elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return ThroughputResult(slides=len(values), seconds=best)


class LatencyRecorder:
    """Collect per-answer latencies in nanoseconds."""

    def __init__(self) -> None:
        self.samples_ns: List[int] = []

    def record(self, nanoseconds: int) -> None:
        """Append one latency sample."""
        self.samples_ns.append(nanoseconds)

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
    with _gc_paused():
        for value in values:
            started = clock()
            step(value)
            record(clock() - started)
    return recorder
