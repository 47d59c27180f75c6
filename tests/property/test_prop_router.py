"""Property-based tests: the router's one core frames one stream one way.

``Router.put_many`` must release exactly the batches that per-record
``Router.put`` releases for the same records — same shard, sequence
number, watermark, positions, keys, values *and value container type*,
traces — at the same points of the stream, however the stream is cut
into calls.  The sweep covers what can make the two diverge: shard
count and batch size (where flush rounds fall), key skew (how unevenly
buffers fill), call sizes, values that demote a typed buffer (``bool``,
ints outside i64, floats on an i64 column), a trace id first appearing
mid-stream (trace columns materialise with a backfill), and typed
``put_column`` calls interleaved on both sides (typed buffers to land
on).
"""

from __future__ import annotations

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.partition import Router
from repro.service.slices import SliceClock
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query

PLAN = build_shared_plan((Query(8, 4), Query(6, 2)), "pairs")

#: Skewed key draw: squaring a uniform index piles mass on ``k0``.
KEYS = st.integers(0, 5).map(lambda index: f"k{index * index // 5}")
SMALL_INTS = st.integers(-1000, 1000)
#: Mostly plain ints (listed twice), so typed buffers survive long
#: enough for the demoting kinds to land on one.
VALUES = st.one_of(
    SMALL_INTS,
    SMALL_INTS,
    st.booleans(),
    st.integers(1 << 63, 1 << 70),
    st.floats(allow_nan=False),
)
#: ``None`` several times over: most calls are untraced, and the first
#: traced one usually arrives with records already buffered.
TRACES = st.sampled_from([None, None, None, 7, 8])
COLUMNS = st.one_of(
    st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=12).map(
        lambda values: array("q", values)
    ),
    st.lists(st.floats(allow_nan=False), max_size=12).map(
        lambda values: array("d", values)
    ),
)
CALLS = st.lists(
    st.one_of(
        st.tuples(
            st.just("many"),
            st.lists(st.tuples(KEYS, VALUES), max_size=20),
            TRACES,
        ),
        st.tuples(st.just("column"), KEYS, COLUMNS, TRACES),
    ),
    max_size=12,
)


def _frames(batches):
    """Everything observable about a batch list, types included."""
    return [
        (
            batch.shard,
            batch.seq,
            batch.watermark,
            type(batch.positions),
            list(batch.positions),
            batch.keys,
            type(batch.values),
            getattr(batch.values, "typecode", None),
            [(type(value), value) for value in batch.values],
            batch.traces,
        )
        for batch in batches
    ]


@settings(max_examples=300, deadline=None)
@given(
    num_shards=st.integers(1, 4),
    batch_size=st.integers(1, 7),
    global_merge=st.booleans(),
    calls=CALLS,
)
def test_put_many_frames_exactly_what_per_record_put_frames(
    num_shards, batch_size, global_merge, calls
):
    def router():
        clock = SliceClock(PLAN) if global_merge else None
        return Router(num_shards, batch_size, clock)

    bulk, single = router(), router()
    for call in calls:
        if call[0] == "column":
            _, key, column, trace = call
            released = bulk.put_column(key, column, trace)
            expected = single.put_column(key, column, trace)
        else:
            _, records, trace = call
            released = bulk.put_many(records, trace)
            expected = []
            for key, value in records:
                expected.extend(single.put(key, value, trace))
        assert _frames(released) == _frames(expected)
        assert bulk.position == single.position
    assert _frames(bulk.flush()) == _frames(single.flush())
    assert bulk.flush_rounds == single.flush_rounds
    assert bulk.seen_keys == single.seen_keys
