"""Unit tests for the event-time layer.

Covers the watermark primitives, the timestamped reorder buffer and
its late-record policies, the event-time error types (including their
pickle round-trips across process boundaries), the protocol-v3 frame
field, and the transport frame codec's timestamp column.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.errors import (
    InvalidQueryError,
    LateRecordError,
    OutOfOrderError,
    ProtocolError,
)
from repro.net.protocol import (
    HEADER,
    REQUEST_TYPES,
    SUPPORTED_VERSIONS,
    Frame,
    FrameType,
    decode_answers,
    encode_answers,
    encode_frame,
    try_decode_frame_traced,
)
from repro.operators.registry import get_operator
from repro.service.transport.frame import (
    decode_frame,
    encode_batch_frame,
)
from repro.stream.engine import EventTimeEngine
from repro.stream.outoforder import (
    LATE_POLICIES,
    TimestampReorderBuffer,
)
from repro.stream.records import KeyedEvent
from repro.stream.watermark import (
    BoundedLatenessWatermark,
    TimeSliceClock,
    Watermark,
)
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery, TimeWindowEngine
from tests import oracle


# -- watermark primitives -------------------------------------------


def test_watermark_is_monotone():
    wm = Watermark(0)
    assert wm.advance(3) is True
    assert wm.value == 3
    assert wm.advance(2) is False  # regression ignored
    assert wm.value == 3
    assert wm.advance(3) is False  # no-op, not an advance
    assert wm.advance(7) is True
    assert wm.value == 7


def test_bounded_lateness_watermark_tracks_high_minus_lateness():
    wm = BoundedLatenessWatermark(2.0)
    assert wm.value == -math.inf and wm.high == -math.inf
    wm.observe(10.0)
    assert wm.high == 10.0 and wm.value == 8.0
    wm.observe(5.0)  # out-of-order observation: high is monotone
    assert wm.high == 10.0 and wm.value == 8.0
    assert wm.is_late(7.999)
    assert not wm.is_late(8.0)  # exactly-at-watermark is not late


@pytest.mark.parametrize("lateness", [-1.0, math.inf, math.nan])
def test_bounded_lateness_watermark_rejects_bad_bounds(lateness):
    with pytest.raises(InvalidQueryError):
        BoundedLatenessWatermark(lateness)


def test_time_slice_clock_boundaries():
    clock = TimeSliceClock(0.5, origin=1.0)
    assert clock.slice_of(1.0) == 0
    assert clock.slice_of(1.49) == 0
    # A record exactly on a boundary belongs to the *next* slice.
    assert clock.slice_of(1.5) == 1
    assert clock.start_time(2) == 2.0
    assert clock.end_time(0) == 1.5
    # slices_closed_by: slice k is closed once the watermark passes
    # its end; -inf (nothing observed) closes nothing.
    assert clock.slices_closed_by(-math.inf) == 0
    assert clock.slices_closed_by(1.2) == 0
    assert clock.slices_closed_by(1.5) == 1
    assert clock.slices_closed_by(2.6) == 3


def test_time_slice_clock_rejects_bad_slice():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidQueryError):
            TimeSliceClock(bad)


# -- timestamped reorder buffer -------------------------------------


def test_reorder_buffer_releases_in_timestamp_order():
    buffer = TimestampReorderBuffer(lateness=1.0)
    released = []
    for ts in (0.5, 1.5, 0.9, 3.0, 2.2):
        released.extend(buffer.push(ts, f"r{ts}"))
    released.extend(buffer.drain())
    assert [ts for ts, _ in released] == [0.5, 0.9, 1.5, 2.2, 3.0]
    assert [item for _, item in released] == [
        "r0.5", "r0.9", "r1.5", "r2.2", "r3.0",
    ]
    assert len(buffer) == 0
    assert buffer.late_records == 0


def test_reorder_buffer_equal_timestamps_keep_arrival_order():
    buffer = TimestampReorderBuffer(lateness=0.0)
    released = []
    for item in ("a", "b", "c"):
        released.extend(buffer.push(1.0, item))
    released.extend(buffer.drain())
    assert [item for _, item in released] == ["a", "b", "c"]


def test_reorder_buffer_raise_policy():
    buffer = TimestampReorderBuffer(lateness=0.5)
    list(buffer.push(5.0, "x"))
    with pytest.raises(LateRecordError) as info:
        list(buffer.push(4.0, "late"))
    assert info.value.timestamp == 4.0
    assert info.value.watermark == 4.5
    assert info.value.lateness_bound == 0.5
    assert buffer.late_records == 1


def test_reorder_buffer_drop_and_side_output_policies():
    assert set(LATE_POLICIES) == {"raise", "drop", "side_output"}
    for policy in ("drop", "side_output"):
        seen = []
        buffer = TimestampReorderBuffer(
            lateness=0.5,
            policy=policy,
            on_late=lambda ts, item: seen.append((ts, item)),
        )
        list(buffer.push(5.0, "x"))
        assert list(buffer.push(4.0, "late")) == []
        assert buffer.late_records == 1
        assert seen == [(4.0, "late")]
        # The late record was never admitted to the heap.
        assert len(buffer) == 1


def test_reorder_buffer_rejects_unknown_policy():
    with pytest.raises(OutOfOrderError):
        TimestampReorderBuffer(lateness=1.0, policy="ignore")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("policy", LATE_POLICIES)
def test_reorder_buffer_rejects_nonfinite_timestamps(bad, policy):
    # A NaN would insort silently and then block the release scan
    # forever (NaN comparisons are all False); +inf would pin the
    # watermark at infinity.  Non-finite input is invalid, not late:
    # it raises under every policy and leaves the buffer untouched.
    buffer = TimestampReorderBuffer(
        lateness=1.0, policy=policy, on_late=lambda ts, item: None
    )
    list(buffer.push(5.0, "x"))
    with pytest.raises(OutOfOrderError) as info:
        buffer.push_into(bad, "bad", [])
    assert "finite" in str(info.value)
    assert buffer.late_records == 0
    assert len(buffer) == 1
    assert buffer.high == 5.0 and buffer.watermark == 4.0
    # The buffer is still fully usable afterwards.
    released = []
    buffer.push_into(6.5, "y", released)
    assert [ts for ts, _ in released] == [5.0]


def test_reorder_buffer_rejects_nonfinite_on_empty_buffer():
    for bad in (math.nan, math.inf, -math.inf):
        buffer = TimestampReorderBuffer(lateness=1.0)
        with pytest.raises(OutOfOrderError):
            buffer.push_into(bad, "bad", [])
        assert len(buffer) == 0 and buffer.watermark == -math.inf


def _buffer_state(buffer):
    return (
        list(buffer._buffer), buffer.high, buffer.watermark, len(buffer)
    )


def test_push_many_rejects_nonfinite_mid_batch_and_keeps_state():
    # All or nothing: the refused call leaves buffer, high mark and
    # watermark exactly as they were, and feeding the batch's clean
    # prefix afterwards releases what the unbroken stream would have.
    buffer = TimestampReorderBuffer(lateness=1.0)
    out = []
    buffer.push_many_into([(0.5, "z")], out)
    before = _buffer_state(buffer)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(OutOfOrderError) as info:
            buffer.push_many_into(
                [(1.0, "a"), (bad, "bad"), (2.0, "never")], out
            )
        assert "finite" in str(info.value)
        assert out == [] and _buffer_state(buffer) == before
    assert buffer.late_records == 0
    buffer.push_many_into([(1.0, "a")], out)  # the clean prefix
    assert out == [] and buffer.high == 1.0 and buffer.watermark == 0.0
    buffer.push_many_into([(5.0, "b")], out)
    assert out == [(0.5, "z"), (1.0, "a")]


def test_push_many_names_the_first_offender_in_arrival_order():
    buffer = TimestampReorderBuffer(lateness=0.5)
    buffer.push_many_into([(5.0, "x")], [])
    before = _buffer_state(buffer)
    # A late row ahead of a non-finite one: the late row is named ...
    with pytest.raises(LateRecordError) as late:
        buffer.push_many_into([(6.0, "a"), (1.0, "late"), (math.nan, "n")], [])
    assert late.value.timestamp == 1.0 and late.value.watermark == 4.5
    assert buffer.late_records == 1
    # ... and the other way round, the non-finite one.
    with pytest.raises(OutOfOrderError) as bad:
        buffer.push_many_into([(6.0, "a"), (math.nan, "n"), (1.0, "late")], [])
    assert "finite" in str(bad.value)
    assert buffer.late_records == 1
    assert _buffer_state(buffer) == before


@pytest.mark.parametrize("policy", ["drop", "side_output"])
def test_push_many_diverts_late_rows_and_merges_the_rest(policy):
    seen = []
    buffer = TimestampReorderBuffer(
        lateness=0.5, policy=policy,
        on_late=lambda ts, item: seen.append((ts, item)),
    )
    buffer.push_many_into([(5.0, "x")], [])
    out = []
    buffer.push_many_into(
        [(1.0, "l1"), (6.0, "a"), (2.0, "l2"), (4.6, "b"), (7.0, "c")], out
    )
    assert seen == [(1.0, "l1"), (2.0, "l2")]  # arrival order
    assert buffer.late_records == 2
    assert out == [(4.6, "b"), (5.0, "x"), (6.0, "a")]
    assert buffer.high == 7.0 and buffer.watermark == 6.5
    # A non-finite stamp refuses the whole call under these policies
    # too, before any late row is counted or handed over.
    before = _buffer_state(buffer)
    with pytest.raises(OutOfOrderError):
        buffer.push_many_into([(1.0, "l3"), (math.inf, "bad")], out)
    assert len(seen) == 2 and buffer.late_records == 2
    assert _buffer_state(buffer) == before


@pytest.mark.parametrize(
    "rows",
    [
        [(1.0, "a"), (2.0,)],
        [(1.0, "a"), (2.0, "b", "c")],
        [(1.0, "a"), 2.0],
        [(1.0, "a"), None],
    ],
)
def test_push_many_refuses_a_malformed_row_before_touching_state(rows):
    buffer = TimestampReorderBuffer(lateness=1.0)
    buffer.push_many_into([(0.5, "z")], [])
    before = _buffer_state(buffer)
    out = []
    with pytest.raises(OutOfOrderError) as info:
        buffer.push_many_into(rows, out)
    assert repr(rows[1]) in str(info.value)
    assert out == [] and _buffer_state(buffer) == before


def test_push_many_accepts_any_pair_rows_and_releases_tuples():
    buffer = TimestampReorderBuffer(lateness=1.0)
    out = []
    buffer.push_many_into(iter([[1.0, "a"], (0.5, "b")]), out)
    buffer.push_many_into(([3.0, "c"],), out)
    assert out == [(0.5, "b"), (1.0, "a")]
    assert all(type(row) is tuple for row in out)


def test_push_many_equal_stamps_release_in_arrival_order():
    # Within a batch, across batches, and against a per-record push.
    buffer = TimestampReorderBuffer(lateness=1.0)
    out = []
    buffer.push_many_into([(2.0, "a"), (1.0, "b"), (2.0, "c")], out)
    buffer.push_into(2.0, "d", out)
    buffer.push_many_into([(1.0, "e"), (2.0, "f")], out)
    out.extend(buffer.drain())
    assert out == [
        (1.0, "b"), (1.0, "e"),
        (2.0, "a"), (2.0, "c"), (2.0, "d"), (2.0, "f"),
    ]


HUGE = 10**400  # an int no float can hold


def test_huge_int_timestamp_does_not_wedge_the_reorder_buffer():
    # At the parent this raised OverflowError *after* setting the high
    # mark to 10**400, and every later call raised it again.
    buffer = TimestampReorderBuffer(1.0)
    out = []
    with pytest.raises(OutOfOrderError) as info:
        buffer.push_many_into([(1.0, "a"), (HUGE, "x")], out)
    assert "finite" in str(info.value)
    assert out == [] and len(buffer) == 0
    assert buffer.high == -math.inf and buffer.watermark == -math.inf
    # Two that cancel in the sum are still refused.
    with pytest.raises(OutOfOrderError):
        buffer.push_many_into([(HUGE, "x"), (-HUGE, "y"), (1.0, "a")], out)
    for bad in (HUGE, -HUGE):
        with pytest.raises(OutOfOrderError):
            buffer.push_into(bad, "x", out)
    assert out == [] and len(buffer) == 0
    # The buffer still works after the refused calls.
    buffer.push_many_into([(1.0, "a"), (3.0, "b")], out)
    assert out == [(1.0, "a")] and buffer.high == 3.0


def test_huge_int_timestamp_is_refused_by_the_time_engine():
    queries = [TimeQuery(1.0, 1.0)]
    engine = TimeWindowEngine(queries, get_operator("sum"))
    engine.feed(0.5, 1)
    with pytest.raises(OutOfOrderError) as info:
        engine.feed(HUGE, 2)
    assert "finite" in str(info.value)
    with pytest.raises(OutOfOrderError) as info:
        engine.feed_many([(0.75, 2), (HUGE, 3)])
    assert "finite" in str(info.value)
    answers = engine.feed_many([(0.75, 2), (1.5, 3)]) + engine.finish()
    assert answers == oracle.time_windows(
        get_operator("sum"), queries, [(0.5, 1), (0.75, 2), (1.5, 3)]
    )


def test_reorder_buffer_refuses_timestamps_before_its_origin():
    # A record before the first slice boundary can never be folded:
    # refused at ingress, not when it is released calls later.
    for policy in LATE_POLICIES:
        buffer = TimestampReorderBuffer(1.0, policy, origin=10.0)
        out = []
        with pytest.raises(OutOfOrderError) as info:
            buffer.push_into(9.5, "x", out)
        assert "origin" in str(info.value)
        with pytest.raises(OutOfOrderError) as info:
            buffer.push_many_into([(10.0, "a"), (9.5, "x")], out)
        assert "origin" in str(info.value)
        assert out == [] and len(buffer) == 0 and buffer.late_records == 0
        buffer.push_many_into([(10.0, "a"), (12.0, "b")], out)
        assert out == [(10.0, "a")]


def test_push_many_matches_per_record_on_bounded_disorder():
    records = [(ts, f"r{ts}") for ts in (0.5, 1.5, 0.9, 3.0, 2.2, 4.1)]
    one = TimestampReorderBuffer(lateness=1.0)
    singly = []
    for ts, item in records:
        one.push_into(ts, item, singly)
    singly.extend(one.drain())

    many = TimestampReorderBuffer(lateness=1.0)
    batched = []
    many.push_many_into(records[:3], batched)
    many.push_many_into(records[3:], batched)
    batched.extend(many.drain())

    assert batched == singly
    assert many.watermark == one.watermark
    assert many.high == one.high


def test_push_many_watermark_advances_at_batch_granularity():
    # Per-record pushing rejects 4.0 (watermark is 4.5 once 5.0 is
    # seen); batched pushing judges mid-batch records against the
    # *previous* batch's watermark, so the same record is accepted
    # and still released in sorted order.
    buffer = TimestampReorderBuffer(lateness=0.5)
    released = []
    buffer.push_many_into([(5.0, "x"), (4.0, "in-batch")], released)
    assert buffer.late_records == 0
    assert [ts for ts, _ in released] == [4.0]
    # Across batches the bound applies as usual.
    with pytest.raises(LateRecordError):
        buffer.push_many_into([(3.0, "late")], [])
    assert buffer.late_records == 1


# -- error types ----------------------------------------------------


def test_late_record_error_attributes_and_pickle():
    error = LateRecordError(1.5, 2.0, 0.5)
    assert error.timestamp == 1.5
    assert error.watermark == 2.0
    assert error.lateness_bound == 0.5
    assert "1.5" in str(error) and "2.0" in str(error)
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, LateRecordError)
    assert (clone.timestamp, clone.watermark, clone.lateness_bound) == (
        1.5, 2.0, 0.5,
    )


def test_out_of_order_error_carries_position_and_watermark():
    error = OutOfOrderError("regressed", position=3, watermark=7)
    assert error.position == 3 and error.watermark == 7
    clone = pickle.loads(pickle.dumps(error))
    assert (clone.position, clone.watermark) == (3, 7)
    assert str(clone) == "regressed"
    # Errors raised before the refactor carried no context: both
    # fields default to None and the pickle round-trip still works.
    bare = pickle.loads(pickle.dumps(OutOfOrderError("old-style")))
    assert bare.position is None and bare.watermark is None


# -- records --------------------------------------------------------


def test_keyed_event_astuple():
    event = KeyedEvent("sensor", 1.5, 42)
    assert event.astuple() == ("sensor", 1.5, 42)


# -- protocol v3 ----------------------------------------------------


def test_v3_frame_round_trips_event_time():
    raw = encode_frame(
        FrameType.SUBMIT_EVENT, ("key", 7), trace_id=None,
        event_time=12.5,
    )
    assert raw[2] == 3  # version byte
    frame, consumed = try_decode_frame_traced(raw)
    assert consumed == len(raw)
    assert frame.frame_type is FrameType.SUBMIT_EVENT
    assert frame.payload == ("key", 7)
    assert frame.trace_id is None
    assert frame.event_time == 12.5


def test_v3_frame_carries_trace_and_event_time_together():
    raw = encode_frame(
        FrameType.SUBMIT_EVENT, ("k", 1), trace_id=99, event_time=0.25
    )
    frame, _ = try_decode_frame_traced(raw)
    assert frame.trace_id == 99
    assert frame.event_time == 0.25


def test_untraced_untimed_frames_stay_v1_byte_identical():
    raw = encode_frame(FrameType.SUBMIT, ("k", 1))
    assert raw[2] == 1
    # v1 layout: header + payload, nothing between.
    assert len(raw) == HEADER.size + (len(raw) - HEADER.size)
    frame, _ = try_decode_frame_traced(raw)
    assert frame.trace_id is None and frame.event_time is None


def test_traced_untimed_frames_stay_v2():
    raw = encode_frame(FrameType.SUBMIT, ("k", 1), trace_id=5)
    assert raw[2] == 2
    frame, _ = try_decode_frame_traced(raw)
    assert frame.trace_id == 5 and frame.event_time is None


def test_v3_partial_event_field_waits_for_more_bytes():
    raw = encode_frame(FrameType.SUBMIT_EVENT, ("k", 1), event_time=1.0)
    # Cut inside the event-time field: not an error, just incomplete.
    cut = HEADER.size + 8 + 4
    assert try_decode_frame_traced(raw[:cut]) is None
    frame, _ = try_decode_frame_traced(raw)
    assert frame.event_time == 1.0


def test_event_frame_types_are_requests():
    assert FrameType.SUBMIT_EVENT in REQUEST_TYPES
    assert FrameType.SUBMIT_EVENT_BATCH in REQUEST_TYPES
    assert 3 in SUPPORTED_VERSIONS


def test_frame_tuple_defaults_event_time_none():
    frame = Frame(FrameType.POLL, None, None)
    assert frame.event_time is None


def test_answer_marshalling_round_trips_time_queries():
    tq = TimeQuery(2.0, 1.0, name="w")
    cq = Query(8, 4, name="c")
    rows = encode_answers([(3.0, tq, 17), (8, cq, 5)])
    assert rows[0] == (3.0, ("time", 2.0, 1.0, "w"), 17)
    assert rows[1] == (8, (8, 4, "c"), 5)
    decoded = decode_answers(rows)
    assert decoded == [(3.0, tq, 17), (8, cq, 5)]
    assert isinstance(decoded[0][1], TimeQuery)
    assert isinstance(decoded[1][1], Query)


def test_malformed_query_spec_raises():
    with pytest.raises(ProtocolError):
        decode_answers([(1, (2.0,), 3)])


# -- transport frame timestamp column -------------------------------


def test_columnar_frame_round_trips_timestamps():
    timestamps = [0.5, 1.25, 2.0]
    frame = encode_batch_frame(
        1, 7, 2, [10, 11, 12], ["a", "a", "b"], [1, 2, 3], None,
        timestamps,
    )
    decoded = decode_frame(memoryview(frame))
    assert list(decoded.timestamps) == timestamps
    assert list(decoded.positions) == [10, 11, 12]
    assert list(decoded.values) == [1, 2, 3]
    decoded.release()
    assert decoded.timestamps is None


def test_columnar_frame_without_timestamps_decodes_none():
    frame = encode_batch_frame(
        0, 1, None, [0, 1], ["k", "k"], [5, 6], None
    )
    decoded = decode_frame(memoryview(frame))
    assert decoded.timestamps is None
    decoded.release()


def test_columnar_frame_timestamps_compose_with_traces():
    frame = encode_batch_frame(
        0, 1, 1, [0, 1], ["k", "k"], [5, 6], [None, 42], [0.1, 0.2]
    )
    decoded = decode_frame(memoryview(frame))
    assert decoded.traces == [None, 42]
    assert list(decoded.timestamps) == [0.1, 0.2]
    decoded.release()


# -- single-node event-time engine ----------------------------------


def test_event_time_engine_matches_time_engine_on_disorder():
    queries = [TimeQuery(2.0, 1.0), TimeQuery(3.0, 1.5)]
    stream = [(tick / 10 + 0.011, tick % 7) for tick in range(80)]
    shuffled = sorted(
        stream, key=lambda r: r[0] + ((hash(r) % 9) / 10)
    )
    engine = EventTimeEngine(
        queries, get_operator("sum"), lateness=1.0
    )
    got = []
    for ts, value in shuffled:
        got.extend(engine.feed(ts, value))
    got.extend(engine.finish())
    assert got == oracle.time_windows(get_operator("sum"), queries, stream)


def test_event_time_engine_raises_on_late_records():
    engine = EventTimeEngine(
        [TimeQuery(1.0, 1.0)], get_operator("sum"), lateness=0.25
    )
    list(engine.feed(5.0, 1))
    with pytest.raises(LateRecordError):
        list(engine.feed(1.0, 2))
    assert engine.late_records == 1


def test_an_empty_stream_answers_nothing_on_every_time_path():
    # finish() used to close slice 0 as the identity, so a stream that
    # never had a record answered [(1.0, q, 0)]; the oracle and the
    # time-mode service answer nothing.
    from repro.service import AggregationService

    queries = [TimeQuery(2.0, 1.0)]
    sum_op = get_operator("sum")
    expected = oracle.time_windows(sum_op, queries, [])
    assert expected == []
    service = AggregationService(
        queries, sum_op, num_shards=2, mode="time", transport="inline"
    )
    assert service.close().answers == expected
    assert TimeWindowEngine(queries, sum_op).finish() == expected
    assert EventTimeEngine(queries, sum_op, lateness=1.0).finish() == expected
    # Records still in the reorder buffer at finish are a stream, and
    # so is one record at the origin itself.
    engine = EventTimeEngine(queries, sum_op, lateness=10.0)
    assert engine.feed_many([(0.5, 3), (0.2, 4)]) == []
    assert engine.finish() == oracle.time_windows(
        sum_op, queries, [(0.5, 3), (0.2, 4)]
    )
    engine = TimeWindowEngine(queries, sum_op)
    assert engine.feed(0.0, 7) == []
    assert engine.finish() == oracle.time_windows(sum_op, queries, [(0.0, 7)])


def _engine_state(engine):
    inner = engine._inner
    return (
        _buffer_state(engine._reorder),
        inner._open_index, inner._accumulator, inner._newest,
    )


def test_feed_many_mid_batch_late_raise_still_feeds_released_records():
    # All or nothing: the refused call releases nothing and changes
    # nothing, so feeding its clean prefix afterwards yields every
    # answer of the unbroken stream — none is lost to the exception.
    queries = [TimeQuery(1.0, 1.0)]
    engine = EventTimeEngine(
        queries, get_operator("sum"), lateness=0.5
    )
    assert engine.feed_many([(5.0, 1)]) == []
    before = _engine_state(engine)
    with pytest.raises(LateRecordError) as info:
        # 1.0 is behind the previous call's watermark (4.5) and raises
        # under the default "raise" policy; 10.0 is not admitted.
        engine.feed_many([(10.0, 2), (1.0, 99)])
    assert info.value.timestamp == 1.0 and info.value.watermark == 4.5
    assert engine.late_records == 1
    assert _engine_state(engine) == before and engine.watermark == 4.5
    answers = engine.feed_many([(10.0, 2)]) + engine.finish()
    assert answers == oracle.time_windows(
        get_operator("sum"), queries, [(5.0, 1), (10.0, 2)]
    )
    assert (6.0, queries[0], 1) in answers  # the released record counted


def test_feed_many_nonfinite_timestamp_raises_and_engine_survives():
    queries = [TimeQuery(1.0, 1.0)]
    engine = EventTimeEngine(queries, get_operator("sum"), lateness=0.5)
    engine.feed_many([(0.5, 4)])
    before = _engine_state(engine)
    for bad in (math.nan, math.inf, -math.inf, HUGE):
        with pytest.raises(OutOfOrderError):
            engine.feed_many([(1.0, 1), (3.0, 5), (bad, 7)])
        assert _engine_state(engine) == before
    answers = engine.feed_many([(1.0, 1), (3.0, 5)])
    assert answers  # the clean prefix closes slices the refused call did not
    answers += engine.finish()
    assert answers == oracle.time_windows(
        get_operator("sum"), queries, [(0.5, 4), (1.0, 1), (3.0, 5)]
    )


def test_event_time_engine_refuses_records_before_origin_at_ingress():
    # At the parent the buffer admitted the record and the window stage
    # refused it when a *later* call released it — with that call's
    # other releases lost.
    queries = [TimeQuery(1.0, 1.0)]
    engine = EventTimeEngine(
        queries, get_operator("sum"), lateness=0.5, origin=2.0
    )
    before = _engine_state(engine)
    with pytest.raises(OutOfOrderError):
        engine.feed_many([(2.5, 1), (1.5, 2)])
    with pytest.raises(OutOfOrderError):
        engine.feed(1.5, 2)
    assert _engine_state(engine) == before
    answers = engine.feed_many([(2.5, 1), (4.0, 2)]) + engine.finish()
    assert answers == oracle.time_windows(
        get_operator("sum"), queries, [(2.5, 1), (4.0, 2)], origin=2.0
    )


# -- non-finite timestamps at the service and wire layers -----------


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, pytest.param(HUGE, id="huge-int")],
)
def test_service_submit_event_rejects_nonfinite_timestamps(bad):
    from repro.service import AggregationService

    service = AggregationService(
        [TimeQuery(2.0, 1.0)],
        get_operator("sum"),
        num_shards=2,
        mode="time",
        transport="inline",
        lateness=1.0,
    )
    try:
        service.submit_event("k", 1, 5.0)
        with pytest.raises(OutOfOrderError) as info:
            service.submit_event("k", 2, bad)
        assert "finite" in str(info.value)
        # The service is still healthy: later in-order records ingest
        # and the stream closes with exact answers.
        service.submit_event("k", 3, 6.0)
        answers = list(service.poll())
        service.close()
        answers.extend(service.poll())
        assert answers == oracle.time_windows(
            get_operator("sum"), [TimeQuery(2.0, 1.0)], [(5.0, 1), (6.0, 3)]
        )
    except BaseException:
        service.abort()
        raise


def test_service_event_batch_is_all_or_nothing():
    # Records before a refused one used to be ingested anyway: the
    # gateway counted 1 record while the service held 3, and a client
    # retrying the batch's clean records counted two of them twice.
    from repro.service import AggregationService, ServiceGateway

    queries = [TimeQuery(1.0, 1.0)]
    gateway = ServiceGateway(
        AggregationService(
            queries,
            get_operator("sum"),
            num_shards=2,
            mode="time",
            transport="inline",
            lateness=0.5,
        )
    )
    gateway.submit_events([("k", 10.0, 1)])
    with pytest.raises(LateRecordError):
        gateway.submit_events([("k", 10.1, 2), ("k", 10.2, 3), ("k", 8.0, 4)])
    with pytest.raises(ValueError):
        gateway.submit_events([("k", 10.3, 5), ("k", 10.4)])
    assert gateway.snapshot()["event_time"]["pending_reorder"] == 1
    result = gateway.close()
    assert result.stats.records_submitted == 1
    assert gateway.snapshot()["records_submitted"] == 1
    assert result.answers == oracle.time_windows(
        get_operator("sum"), queries, [(10.0, 1)]
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wire_normalize_rejects_nonfinite_event_header(bad):
    from repro.net.protocol import SUBMIT_SHAPES

    with pytest.raises(ProtocolError) as info:
        SUBMIT_SHAPES[FrameType.SUBMIT_EVENT].parse(("k", 1), bad)
    assert "finite" in str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wire_normalize_rejects_nonfinite_batch_timestamps(bad):
    from repro.net.protocol import SUBMIT_SHAPES

    with pytest.raises(ProtocolError) as info:
        SUBMIT_SHAPES[FrameType.SUBMIT_EVENT_BATCH].parse(
            [("k", 1.0, 10), ("k", bad, 11)], None
        )
    assert "finite" in str(info.value)
