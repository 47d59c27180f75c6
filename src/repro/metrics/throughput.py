"""Throughput result (paper Exps 1-2, Figs. 10-13).

"Throughput is measured as the number of query results returned per
second in a single query environment, while in a multi-query
environment it is measured as the number of slides of a shared
execution plan processed per second."  The paper harness's driver
(``benchmarks/paper/measures.py``) and the service's ingest report both
express a rate as a :class:`ThroughputResult`.
"""

from __future__ import annotations

from dataclasses import dataclass


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
