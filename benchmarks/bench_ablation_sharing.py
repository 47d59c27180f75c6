"""Ablation: shared plan vs one engine per query (§2.3).

The paper's Example 1: compatible ACQs share partial aggregates, so
"the calculation producing partial aggregates only needs to be
performed once".  This bench runs the same ACQ set through one shared
SlickDeque plan and through one ``StreamEngine`` per query; shared
should win, and the gap should widen with more overlapping queries.
"""

from __future__ import annotations

import pytest

from repro.datasets.debs12 import debs12_array
from repro.operators.registry import get_operator
from repro.stream.engine import StreamEngine
from repro.windows.query import Query

STREAM = 2_000

#: The paper's Example 1 pair, then a heavier overlapping set.
QUERY_SETS = {
    "example1": [Query(6, 2), Query(8, 4)],
    "dense": [Query(r, 4) for r in (8, 16, 32, 64, 128)],
}


@pytest.fixture(scope="module")
def shared_stream():
    return debs12_array(STREAM, reading=0, seed=2012)


@pytest.mark.parametrize("sharing", ["shared", "per_query"])
@pytest.mark.parametrize("query_set", sorted(QUERY_SETS))
def test_ablation_sharing(benchmark, sharing, query_set, shared_stream):
    queries = QUERY_SETS[query_set]
    engine_sets = [queries] if sharing == "shared" else [[q] for q in queries]

    def run():
        emitted = 0
        for acqs in engine_sets:
            engine = StreamEngine(acqs, get_operator("max"))
            engine.run(shared_stream)
            emitted += engine.answers_emitted
        return emitted

    emitted = benchmark(run)
    benchmark.extra_info["ablation"] = "sharing"
    benchmark.extra_info["sharing"] = sharing
    benchmark.extra_info["answers"] = emitted
    assert emitted > 0
