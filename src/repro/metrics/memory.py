"""Memory measurement (paper Exp 4, Fig. 15).

The paper measures "the maximum resident set size of processes running
the corresponding techniques".  RSS of a CPython process is dominated
by the interpreter, so this module reports two substitutes (see
DESIGN.md):

* **logical words** — every aggregator's ``memory_words()``, which
  implements the Section 4.2 space formulas exactly (Naive ``n``,
  FlatFAT ``2^⌈log n⌉·2``, TwoStacks/FlatFIT/DABA ``≈2n``, SlickDeque
  (Inv) ``n + q``, SlickDeque (Non-Inv) input-dependent ``≤ 2n+4√n``);
* **measured bytes** — ``tracemalloc`` peak allocation attributable to
  running the aggregator, for readers who want a physical number.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence


@dataclass(frozen=True)
class MemoryResult:
    """One memory measurement."""

    logical_words: int
    measured_peak_bytes: int


def peak_memory_words(aggregator: Any, values: Iterable[Any]) -> int:
    """Maximum ``memory_words()`` observed while running a stream.

    SlickDeque (Non-Inv) and DABA have input-dependent footprints, so
    the peak over the run (not the final state) is the honest Fig. 15
    number.
    """
    peak = aggregator.memory_words()
    step = aggregator.step
    for value in values:
        step(value)
        words = aggregator.memory_words()
        if words > peak:
            peak = words
    return peak


def measure_memory(
    make_aggregator: Callable[[], Any], values: Sequence[Any]
) -> MemoryResult:
    """Logical-word peak plus tracemalloc peak for one run.

    A caller that is already tracing keeps tracing: only a session this
    call started is stopped, and the peak is reset first so an outer
    session's earlier peak is not counted.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline, _ = tracemalloc.get_traced_memory()
        aggregator = make_aggregator()
        logical = peak_memory_words(aggregator, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return MemoryResult(
        logical_words=logical,
        measured_peak_bytes=max(0, peak - baseline),
    )
