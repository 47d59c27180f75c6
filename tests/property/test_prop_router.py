"""Property-based tests: the router frames one stream one way.

Per-key mode: ``Router.put_many`` must release exactly the batches that
per-record ``Router.put`` releases for the same records — same shard,
sequence number, watermark, positions, keys, values (types included),
traces — at the same points of the stream, however the stream is cut
into calls.  Global mode: the frame splitter must cut and deal the
same data frames whatever the call cut; only its watermark carriers
follow the calls.  The sweep covers what can make the two diverge:
shard count and batch size (where frames and flush rounds fall), key
skew (how unevenly buffers fill), call sizes, values of every kind
(``bool``, ints outside i64, floats), and a trace id first appearing
mid-stream (trace columns materialise with a backfill).

A global-mode inline service equals :class:`StreamEngine` by ``repr``
on int streams, whatever the call cut, shard count and batch size, with
traced calls, slices straddling frames on different shards, and frames
thinned by the ``sample`` policy (a thinned record contributes
nothing, so the engine is fed the identity at its position).

Every wire shape lands in that one loop.  A ``SUBMIT_COLUMN`` frame —
one key, a packed int64/float64 column or a tagged object column —
taken through its parse half, :class:`ServiceGateway` and an inline
:class:`AggregationService` must frame the same batches and release the
same answers as the same records sent as ``SUBMIT_BATCH`` rows.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import AggregationService, Query, get_operator
from repro.net.protocol import (
    SUBMIT_SHAPES,
    FrameType,
    build_submit_batch,
    build_submit_column,
    encode_frame,
    try_decode_frame_traced,
)
from repro.service.gateway import ServiceGateway
from repro.service.partition import Router, thin_batch
from repro.service.slices import SliceClock
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.plan import build_shared_plan

PLAN = build_shared_plan((Query(8, 4), Query(6, 2)), "pairs")

#: Skewed key draw: squaring a uniform index piles mass on ``k0``.
KEYS = st.integers(0, 5).map(lambda index: f"k{index * index // 5}")
SMALL_INTS = st.integers(-1000, 1000)
I64 = st.integers(-(1 << 63), (1 << 63) - 1)
FLOATS = st.floats(allow_nan=False)
BIGINTS = st.integers(1 << 63, 1 << 70)
VALUES = st.one_of(SMALL_INTS, SMALL_INTS, st.booleans(), BIGINTS, FLOATS)
#: ``None`` several times over: most calls are untraced, and the first
#: traced one usually arrives with records already buffered.
TRACES = st.sampled_from([None, None, None, 7, 8])
CALLS = st.lists(
    st.tuples(st.lists(st.tuples(KEYS, VALUES), max_size=20), TRACES),
    max_size=12,
)


def _frames(batches, dealt=False):
    """Everything observable about a batch list, types included.

    ``dealt``: only the splitter's data frames, without the sequence
    numbers and watermarks its per-call carriers move, and an all-None
    trace column read as none.
    """
    return [
        (batch.shard,)
        + (() if dealt else (batch.seq, batch.watermark))
        + (
            type(batch.positions),
            list(batch.positions),
            batch.keys,
            type(batch.values),
            [(type(value), value) for value in batch.values],
            batch.traces
            if not dealt
            or any(trace is not None for trace in batch.traces or ())
            else None,
        )
        for batch in batches
        if len(batch) or not dealt
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
    released, expected = [], []
    for records, trace in calls:
        released += bulk.put_many(records, trace)
        for key, value in records:
            expected.extend(single.put(key, value, trace))
        assert all(type(batch.values) is list for batch in released)
        assert bulk.position == single.position
        if not global_merge:
            assert _frames(released) == _frames(expected)
            released, expected = [], []
    released += bulk.flush()
    expected += single.flush()
    assert _frames(released, global_merge) == _frames(expected, global_merge)
    if not global_merge:
        assert bulk.seen_keys == single.seen_keys


# -- SUBMIT_COLUMN rides the row path ---------------------------------

#: One key's column: packed int64 / float64 (infinities included), or
#: tagged object columns (bools, ints outside i64, mixed kinds) — and
#: empty.
COLUMNS = st.one_of(
    st.lists(I64, max_size=12),
    st.lists(FLOATS, max_size=12),
    st.lists(st.booleans(), max_size=6),
    st.lists(st.one_of(BIGINTS, SMALL_INTS), max_size=6),
    st.lists(st.one_of(SMALL_INTS, FLOATS, st.booleans()), max_size=6),
)
WIRE_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("column"), KEYS, COLUMNS, TRACES),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(KEYS, VALUES), max_size=12),
            TRACES,
        ),
    ),
    max_size=10,
)


def _request(call):
    """The call's ``(frame type, payload)`` as a client sends it, and
    as ``SUBMIT_BATCH`` rows; an empty column, which a client never
    sends, as the packed empty body another peer may."""
    if call[0] == "batch":
        _, records, trace = call
        batch = build_submit_batch(records)[:2]
        return batch, batch, trace
    _, key, column, trace = call
    request = build_submit_column(key, column)
    as_column = (
        request[:2] if request else (FrameType.SUBMIT_COLUMN, (key, "q", b""))
    )
    rows = build_submit_batch([(key, value) for value in column])[:2]
    return as_column, rows, trace


class _Served:
    """An inline service behind a gateway that logs every framed batch."""

    def __init__(self, num_shards, batch_size):
        service = AggregationService(
            [Query(4, 2), Query(6, 3)],
            get_operator("sum"),
            num_shards=num_shards,
            batch_size=batch_size,
            transport="inline",
        )
        self.shipped = []
        ship = service._transport.ship

        def logged(batch):
            self.shipped.append(
                (
                    batch.shard,
                    batch.seq,
                    batch.watermark,
                    list(batch.positions),
                    repr(batch.keys),
                    type(batch.values),
                    repr(list(batch.values)),
                    batch.traces,
                )
            )
            ship(batch)

        service._transport.ship = logged
        self.gateway = ServiceGateway(service)

    def send(self, frame_type, payload, trace):
        """Socket bytes -> decode -> parse half -> the row's verb."""
        frame, _ = try_decode_frame_traced(
            encode_frame(frame_type, payload, trace)
        )
        shape = SUBMIT_SHAPES[frame.frame_type]
        args, count = shape.parse(frame.payload, frame.event_time)
        assert getattr(self.gateway, shape.verb)(*args, frame.trace_id) == count
        return count, repr(self.gateway.poll_traced())


@settings(max_examples=150, deadline=None)
@given(
    num_shards=st.integers(1, 3),
    batch_size=st.integers(1, 7),
    calls=WIRE_CALLS,
)
#: A packed float64 column holding both infinities (a running sum
#: turns to nan), next to rows carrying one.
@example(
    num_shards=2,
    batch_size=3,
    calls=[
        ("column", "k0", [float("inf"), 1.5, float("-inf"), 2.0], None),
        ("batch", [("k1", float("inf")), ("k0", 3)], 7),
        ("column", "k1", [float("-inf")], 8),
    ],
)
def test_submit_column_frames_and_answers_like_its_rows(
    num_shards, batch_size, calls
):
    columns, rows = _Served(num_shards, batch_size), _Served(
        num_shards, batch_size
    )
    try:
        for call in calls:
            as_column, as_rows, trace = _request(call)
            assert columns.send(*as_column, trace) == rows.send(*as_rows, trace)
            assert columns.shipped == rows.shipped
        assert all(logged[5] is list for logged in columns.shipped)
        assert repr(columns.gateway.close().answers) == repr(
            rows.gateway.close().answers
        )
        assert columns.shipped == rows.shipped
    finally:
        columns.gateway.abort()
        rows.gateway.abort()


# -- the global-mode service equals the engine ------------------------

ENGINE_QUERIES = (Query(8, 4), Query(6, 2))


@settings(max_examples=60, deadline=None)
@given(
    num_shards=st.integers(1, 4),
    batch_size=st.integers(1, 300),
    calls=st.lists(
        st.tuples(st.lists(SMALL_INTS, max_size=400), TRACES), max_size=8
    ),
    thinned=st.sets(st.integers(0, 30), max_size=4),
)
#: 3-record frames dealt over two shards: most 2-record slices
#: straddle two frames on different shards, and frame 1 is thinned.
@example(
    num_shards=2,
    batch_size=3,
    calls=[(list(range(1, 20)), None), (list(range(20, 31)), 7)],
    thinned={1},
)
def test_global_inline_service_equals_the_engine(
    num_shards, batch_size, calls, thinned
):
    service = AggregationService(
        ENGINE_QUERIES,
        get_operator("sum"),
        num_shards=num_shards,
        batch_size=batch_size,
        transport="inline",
        backpressure="sample",
    )
    stream = [value for values, _ in calls for value in values]
    ship = service._transport.ship
    dealt = 0

    def sampled(batch):
        # The sample policy under pressure, on the chosen data frames:
        # every other record goes, and contributes the identity.
        nonlocal dealt
        if len(batch):
            if dealt in thinned:
                kept, _ = thin_batch(batch)
                for position in set(batch.positions) - set(kept.positions):
                    stream[position - 1] = 0
                batch = kept
            dealt += 1
        ship(batch)

    service._transport.ship = sampled
    for values, trace in calls:
        service.submit_many([(f"k{v % 3}", v) for v in values], trace)
    answers = service.close().answers
    sink = CollectSink()
    StreamEngine(ENGINE_QUERIES, get_operator("sum"), sinks=[sink]).run(stream)
    assert repr(answers) == repr(sink.answers)
