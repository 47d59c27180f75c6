"""Exp 5 (extension): throughput vs number of registered queries.

The paper's Exp 2 fixes the query count to the window size (the
max-multi-query upper bound).  This extension study sweeps the *query
count* at a fixed window instead — the multi-tenant axis of Section 1
— and shows where each algorithm's multi-query cost model bends:

* Naive degrades linearly in Σ(ranges) (every answer is a fold);
* FlatFAT/B-Int degrade as q·log n (one look-up per range);
* FlatFIT flattens out: its path compression makes each *additional*
  range nearly free once the longest range is answered;
* SlickDeque (Inv) costs exactly 2 ops per distinct range;
* SlickDeque (Non-Inv) answers every extra range from the same deque
  sweep — per-slide ⊕ cost independent of q.

Not a paper figure; included as the ablation DESIGN.md calls out for
the multi-query design choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.datasets.debs12 import debs12_array
from repro.datasets.workloads import uniform_ranges
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import Table, series_table
from repro.metrics.throughput import measure_single_query
from repro.operators.registry import get_operator
from repro.registry import available_algorithms, get_algorithm

#: Query-count sweep at the fixed window.
DEFAULT_QUERY_COUNTS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_WINDOW = 64


@dataclass(frozen=True)
class Exp5Result:
    """Throughput per (algorithm, query count)."""

    operator_name: str
    window: int
    query_counts: Sequence[int]
    series: Dict[str, Dict[int, Optional[float]]]

    def table(self) -> Table:
        """The sweep as a query-count × algorithm rate table."""
        return series_table(
            f"Exp 5 (extension): multi-query throughput vs query "
            f"count, {self.operator_name}, window={self.window} — "
            "plan slides/second",
            "queries",
            list(self.query_counts),
            self.series,
            list(self.series.keys()),
        )

    def scaling_factor(self, algorithm: str) -> float:
        """Throughput at q=1 over throughput at the largest q.

        Close to 1 means query-count-insensitive; large means the
        algorithm pays per query.
        """
        by_count = self.series[algorithm]
        counts = [c for c, v in by_count.items() if v]
        first, last = min(counts), max(counts)
        return by_count[first] / by_count[last]


def run(
    operator_name: str = "max",
    window: int = DEFAULT_WINDOW,
    query_counts: Sequence[int] = DEFAULT_QUERY_COUNTS,
    stream_length: int = 4_000,
    seed: int = 2012,
    algorithms: Optional[Sequence[str]] = None,
) -> Exp5Result:
    """Execute the query-count sweep."""
    algorithms = list(
        algorithms or available_algorithms(multi_query=True)
    )
    stream = debs12_array(stream_length, seed=seed)
    series: Dict[str, Dict[int, Optional[float]]] = {
        name: {} for name in algorithms
    }
    for count in query_counts:
        ranges = uniform_ranges(count, window, seed=seed + count)
        for name in algorithms:
            spec = get_algorithm(name)
            result = measure_single_query(
                lambda: spec.multi(get_operator(operator_name), ranges),
                stream,
            )
            series[name][count] = result.per_second
    return Exp5Result(operator_name, window, query_counts, series)


def main(config: Optional[ExperimentConfig] = None) -> str:
    """Run Exp 5 for Sum and Max; return the rendered report."""
    del config  # sweep is self-contained; kept for CLI uniformity
    sections = []
    for operator_name in ("sum", "max"):
        result = run(operator_name)
        sections.append(result.table().render())
        slick = result.scaling_factor("slickdeque")
        naive = result.scaling_factor("naive")
        sections.append(
            f"throughput q=1 / q={max(result.query_counts)}: "
            f"slickdeque {slick:.1f}x, naive {naive:.1f}x"
        )
        sections.append("")
    return "\n".join(sections)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(main())
