"""Property-based tests: sharded execution equals single-process.

The sharded service's whole correctness argument — slice pieces folded
per frame, recombined across shards in stream order, plan-driven final
aggregation — is checked here against the
single-process engine over random keyed streams, query sets, shard
counts, and batch sizes.  The inline transport keeps hypothesis fast
and deterministic while exercising the identical partition/merge code
paths the process transport ships through its rings.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.registry import get_operator
from repro.service import AggregationService
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query

queries_strategy = st.lists(
    st.builds(
        Query,
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=3,
    unique=True,
)

keyed_streams = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d", "e", "f"]),
        st.integers(min_value=-100, max_value=100),
    ),
    min_size=1,
    max_size=150,
)


def _engine_answers(queries, operator_name, values):
    sink = CollectSink()
    engine = StreamEngine(
        queries, get_operator(operator_name), sinks=[sink]
    )
    engine.run(values)
    return sink.answers


@settings(max_examples=40, deadline=None)
@given(
    queries=queries_strategy,
    records=keyed_streams,
    # The last four are order-sensitive: pieces combine in stream order.
    operator_name=st.sampled_from(
        ["sum", "max", "count", "mean", "first", "last", "argmax_cos", "argmin_x2"]
    ),
    num_shards=st.integers(min_value=1, max_value=5),
    batch_size=st.integers(min_value=1, max_value=32),
    technique=st.sampled_from(["panes", "pairs"]),
)
def test_sharded_global_answers_equal_single_process(
    queries, records, operator_name, num_shards, batch_size, technique
):
    expected = _engine_answers(
        queries, operator_name, [value for _, value in records]
    )
    service = AggregationService(
        queries,
        get_operator(operator_name),
        num_shards=num_shards,
        technique=technique,
        batch_size=batch_size,
        transport="inline",
    )
    service.submit_many(records)
    result = service.close()
    assert result.answers == expected
    assert result.stats.records_submitted == len(records)
    assert result.stats.records_processed == len(records)
    assert result.stats.dropped_records == 0


@settings(max_examples=25, deadline=None)
@given(
    queries=queries_strategy,
    records=keyed_streams,
    operator_name=st.sampled_from(["sum", "max", "first", "last"]),
    num_shards=st.integers(min_value=1, max_value=4),
    batch_size=st.integers(min_value=1, max_value=16),
)
def test_sharded_per_key_answers_equal_per_key_engines(
    queries, records, operator_name, num_shards, batch_size
):
    service = AggregationService(
        queries,
        get_operator(operator_name),
        num_shards=num_shards,
        mode="per_key",
        batch_size=batch_size,
        transport="inline",
    )
    service.submit_many(records)
    result = service.close()
    assert not result.answers  # global answers only in global mode

    values_by_key = {}
    for key, value in records:
        values_by_key.setdefault(key, []).append(value)
    assert set(result.per_key) <= set(values_by_key)
    for key, values in values_by_key.items():
        expected = _engine_answers(queries, operator_name, values)
        assert result.per_key.get(key, []) == expected
