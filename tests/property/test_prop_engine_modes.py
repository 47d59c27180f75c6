"""Property-based tests: engine pipelines agree on random workloads.

The shared SlickDeque plan, one engine per query, and the Cutty
pipeline are independent execution strategies for the same ACQ
semantics — hypothesis drives random ACQ sets and streams through all
of them and requires identical answers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.registry import get_operator
from repro.stream.engine import CuttyPipeline, StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query

queries_strategy = st.lists(
    st.builds(
        Query,
        st.integers(min_value=1, max_value=18),
        st.integers(min_value=1, max_value=6),
    ),
    min_size=1,
    max_size=3,
    unique=True,
)

streams = st.lists(
    st.integers(min_value=-200, max_value=200), min_size=1,
    max_size=120,
)


def _collect(queries, operator_name, stream):
    sink = CollectSink()
    engine = StreamEngine(queries, get_operator(operator_name), sinks=[sink])
    engine.run(stream)
    return sink.answers


@given(queries=queries_strategy, stream=streams,
       operator_name=st.sampled_from(["sum", "max", "range"]))
@settings(max_examples=50, deadline=None)
def test_shared_equals_independent(queries, stream, operator_name):
    """One shared plan == one engine per query, value by value.

    The per-query engines are fed each value in the shared plan's query
    order (descending range, then ascending slide, then name), so their
    answers interleave into the shared engine's order.
    """
    shared = _collect(queries, operator_name, stream)
    sink = CollectSink()
    engines = [
        StreamEngine([query], get_operator(operator_name), sinks=[sink])
        for query in sorted(
            queries, key=lambda q: (-q.range_size, q.slide, q.name)
        )
    ]
    for value in stream:
        for engine in engines:
            engine.feed(value)
    assert shared == sink.answers


@given(
    stream=streams,
    range_size=st.integers(min_value=1, max_value=18),
    slide=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_cutty_agrees_with_shared_plan(stream, range_size, slide):
    query = Query(range_size, slide)
    shared = _collect([query], "max", stream)
    cutty = CuttyPipeline(query, get_operator("max")).run(stream)
    assert [(p, a) for p, _, a in shared] == cutty
