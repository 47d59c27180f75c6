"""Parametric ACQ workload generators (multi-tenant query sets).

The paper's motivation is "multi-query, multi-tenant environments,
where large numbers of ACQs with different ranges and slides operate
on the same data stream" (Section 1).  These generators produce such
query sets with controlled statistics, for the query-scaling
experiment (Exp 5):

* uniform range mixes (dashboards at assorted time scales);
* power-of-two range ladders (the paper's own window sweeps);
* heavy-tailed mixes (a few very long analytics windows over many
  short alerting windows — the common production shape).

Everything is deterministic under a seed.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.windows.query import Query


def uniform_ranges(
    count: int,
    max_range: int,
    seed: int = 0,
) -> List[int]:
    """``count`` distinct ranges drawn uniformly from ``1..max_range``.

    When ``count >= max_range`` every range is returned (the paper's
    max-multi-query environment).
    """
    if count >= max_range:
        return list(range(1, max_range + 1))
    rng = random.Random(seed)
    return sorted(rng.sample(range(1, max_range + 1), count))


def ladder_ranges(count: int, base: int = 2) -> List[int]:
    """A geometric ladder: ``base^0, base^1, ..., base^(count-1)``."""
    return [base**exponent for exponent in range(count)]


def heavy_tailed_ranges(
    count: int,
    max_range: int,
    seed: int = 0,
    alpha: float = 1.5,
) -> List[int]:
    """Pareto-ish ranges: mostly short windows, a few huge ones."""
    rng = random.Random(seed)
    ranges = set()
    while len(ranges) < min(count, max_range):
        sample = int(rng.paretovariate(alpha))
        ranges.add(max(1, min(sample, max_range)))
    return sorted(ranges)


def tenant_queries(
    tenants: int,
    max_range: int,
    seed: int = 0,
    slides: Sequence[int] = (1, 2, 4, 5, 10),
) -> List[Query]:
    """Full ACQs (range *and* slide) for a multi-tenant workload.

    Each tenant gets a range from a heavy-tailed mix and a slide drawn
    from ``slides`` (clipped to its range so windows always overlap).
    """
    rng = random.Random(seed)
    ranges = heavy_tailed_ranges(tenants, max_range, seed=seed)
    queries = []
    for index, range_size in enumerate(ranges):
        slide = min(rng.choice(list(slides)), range_size)
        queries.append(
            Query(range_size, slide, name=f"tenant{index}")
        )
    return queries
