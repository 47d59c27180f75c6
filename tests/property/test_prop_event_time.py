"""Property-based tests: event-time equivalence under bounded disorder.

The contract the event-time layer sells: a stream shuffled within the
lateness bound produces *exactly* the answers of the same stream fed
in timestamp order — for every registry operator on the single-node
engine, and byte-equal through the sharded service for every operator
with a SlickDeque path.  Disorder beyond the bound is policy, not corruption: under
``"drop"`` both paths discard the same records and still agree.

Timestamps are drawn strictly increasing (on the 0.1s grid) so the
release order out of the reorder buffer is fully determined by the
timestamps; the jitter applied to arrival order stays strictly below
the lateness bound, which guarantees no record is ever late.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidOperatorError, LateRecordError
from repro.operators.registry import available_operators, get_operator
from repro.service.service import AggregationService
from repro.stream.checkpoint import CheckpointError, restore, snapshot
from repro.stream.engine import EventTimeEngine
from repro.stream.outoforder import TimestampReorderBuffer
from repro.windows.timebased import TimeQuery, TimeWindowEngine
from tests import oracle
from tests.property.test_prop_engine_paths import (
    _assert_same,
    _streams,
    call_plans,
)

def _time_engine_supported(name):
    """Whether the time engine can run this operator at all.

    The time reduction drives a SlickDeque over *partials*, so
    operators without a SlickDeque path (e.g. ``bit_and``) are
    rejected at construction — there is no in-order path to compare
    the shuffled path against.
    """
    try:
        TimeWindowEngine([TimeQuery(2.0, 1.0)], get_operator(name))
    except InvalidOperatorError:
        return False
    return True


OPERATOR_NAMES = [
    name
    for name in sorted(available_operators())
    if _time_engine_supported(name)
]

#: Operators with a SlickDeque path (what the service's time mode
#: requires) whose arithmetic is exact on ints; the last four are
#: order-sensitive, and merge because pieces combine in stream order.
SERVICE_OPERATORS = [
    "count", "max", "mean", "min", "sum",
    "first", "last", "argmax_cos", "argmin_x2",
]

LATENESS = 1.0

#: Strictly increasing arrival gaps in tenths of a second.
arrival_gaps = st.lists(
    st.integers(min_value=1, max_value=25), min_size=1, max_size=50
)

#: Per-record arrival jitter in tenths of a second, strictly below
#: the lateness bound (0.9 < 1.0) so nothing is ever late.
jitter_tenths = st.integers(min_value=0, max_value=9)


def _value_domain(operator_name):
    """Values each operator is meant to aggregate."""
    if operator_name in ("bool_all", "bool_any"):
        return st.booleans()
    if operator_name == "geometric_mean":
        return st.floats(min_value=1e-3, max_value=1e3)
    if operator_name in ("alpha_max", "argmax_cos"):
        return st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False
        )
    return st.integers(min_value=-(10**6), max_value=10**6)


def _build_stream(gaps, values):
    """A strictly-increasing timestamped stream on the 0.1s grid."""
    stream = []
    tick = 0
    for gap, value in zip(gaps, values):
        tick += gap
        stream.append((tick / 10 + 0.011, value))
    return stream


def _shuffle_within_lateness(stream, jitters):
    """Reorder arrivals by jittered timestamp, disorder < LATENESS."""
    return [
        record
        for _, record in sorted(
            (record[0] + jitters[i] / 10, record)
            for i, record in enumerate(stream)
        )
    ]


def _same_answers(got, expected):
    """Elementwise equality with NaN == NaN (mean of empty window)."""
    assert len(got) == len(expected)
    for (g_end, g_query, g_value), (e_end, e_query, e_value) in zip(
        got, expected
    ):
        assert g_end == e_end and g_query == e_query
        if e_value != e_value:  # NaN
            assert g_value != g_value
        else:
            assert g_value == e_value


@pytest.mark.parametrize("operator_name", OPERATOR_NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_engine_shuffled_equals_sorted_every_operator(
    operator_name, data
):
    gaps = data.draw(arrival_gaps)
    values = data.draw(
        st.lists(
            _value_domain(operator_name),
            min_size=len(gaps),
            max_size=len(gaps),
        )
    )
    jitters = data.draw(
        st.lists(
            jitter_tenths, min_size=len(gaps), max_size=len(gaps)
        )
    )
    stream = _build_stream(gaps, values)
    shuffled = _shuffle_within_lateness(stream, jitters)

    queries = [TimeQuery(2.0, 1.0), TimeQuery(3.0, 1.5)]
    reference = TimeWindowEngine(queries, get_operator(operator_name))
    expected = list(reference.run(stream))

    engine = EventTimeEngine(
        queries, get_operator(operator_name), lateness=LATENESS
    )
    got = []
    for timestamp, value in shuffled:
        got.extend(engine.feed(timestamp, value))
    got.extend(engine.finish())

    assert engine.late_records == 0
    _same_answers(got, expected)


@pytest.mark.parametrize("operator_name", SERVICE_OPERATORS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_time_service_equals_single_node_oracle(operator_name, data):
    gaps = data.draw(arrival_gaps)
    values = data.draw(
        st.lists(
            st.integers(min_value=-(10**6), max_value=10**6),
            min_size=len(gaps),
            max_size=len(gaps),
        )
    )
    jitters = data.draw(
        st.lists(
            jitter_tenths, min_size=len(gaps), max_size=len(gaps)
        )
    )
    num_shards = data.draw(st.integers(min_value=1, max_value=3))
    stream = _build_stream(gaps, values)
    shuffled = _shuffle_within_lateness(stream, jitters)

    queries = [TimeQuery(2.0, 1.0), TimeQuery(5.0, 2.0)]
    reference = EventTimeEngine(
        queries, get_operator(operator_name), lateness=LATENESS
    )
    expected = []
    for timestamp, value in shuffled:
        expected.extend(reference.feed(timestamp, value))
    expected.extend(reference.finish())

    service = AggregationService(
        queries,
        get_operator(operator_name),
        num_shards=num_shards,
        mode="time",
        transport="inline",
        lateness=LATENESS,
    )
    got = []
    try:
        for index, (timestamp, value) in enumerate(shuffled):
            service.submit_event(f"key-{index % 5}", value, timestamp)
        got.extend(service.poll())
        service.close()
        got.extend(service.poll())
    except BaseException:
        service.abort()
        raise

    _same_answers(got, expected)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_drop_policy_agrees_between_engine_and_service(data):
    # Unbounded jitter: some records genuinely exceed the lateness
    # bound.  Both paths must drop exactly the same ones.
    gaps = data.draw(arrival_gaps)
    values = data.draw(
        st.lists(
            st.integers(min_value=-100, max_value=100),
            min_size=len(gaps),
            max_size=len(gaps),
        )
    )
    jitters = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=len(gaps),
            max_size=len(gaps),
        )
    )
    stream = _build_stream(gaps, values)
    shuffled = _shuffle_within_lateness(stream, jitters)

    queries = [TimeQuery(2.0, 1.0)]
    reference = EventTimeEngine(
        queries,
        get_operator("sum"),
        lateness=LATENESS,
        late_policy="drop",
    )
    expected = []
    for timestamp, value in shuffled:
        expected.extend(reference.feed(timestamp, value))
    expected.extend(reference.finish())

    service = AggregationService(
        queries,
        get_operator("sum"),
        num_shards=2,
        mode="time",
        transport="inline",
        lateness=LATENESS,
        late_policy="drop",
    )
    got = []
    try:
        for index, (timestamp, value) in enumerate(shuffled):
            service.submit_event(f"key-{index % 3}", value, timestamp)
        got.extend(service.poll())
        result = service.close()
        got.extend(service.poll())
    except BaseException:
        service.abort()
        raise

    assert service.late_records == reference.late_records
    assert result.stats.late_records == reference.late_records
    assert len(result.dead_letters) == reference.late_records
    _same_answers(got, expected)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_feed_many_batches_equal_sorted_oracle(data):
    """Batched disorder equals the sorted stream, ``repr`` for ``repr``.

    On every registry operator (drawn, so the test keeps its one id).
    Gaps of 0 repeat a timestamp — also across a batch boundary, where
    the tie must still release in arrival order (``first``/``last``
    tell) — and gaps above the 0.5 s slice close empty slices in the
    middle of a call.
    """
    operator_name = data.draw(st.sampled_from(OPERATOR_NAMES))
    gaps = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=25), min_size=1, max_size=50
        )
    )
    values = data.draw(
        st.lists(
            _value_domain(operator_name),
            min_size=len(gaps),
            max_size=len(gaps),
        )
    )
    jitters = data.draw(
        st.lists(
            jitter_tenths, min_size=len(gaps), max_size=len(gaps)
        )
    )
    batch_size = data.draw(st.integers(min_value=1, max_value=7))
    stream = _build_stream(gaps, values)
    # Arrival order: by jittered timestamp, ties by stream index.
    shuffled = [
        stream[index]
        for index in sorted(
            range(len(stream)),
            key=lambda index: stream[index][0] + jitters[index] / 10,
        )
    ]

    queries = [TimeQuery(2.0, 1.0), TimeQuery(3.0, 1.5)]
    reference = TimeWindowEngine(queries, get_operator(operator_name))
    # The sorted stream: by timestamp, equal timestamps as they arrived.
    expected = list(reference.run(sorted(shuffled, key=lambda r: r[0])))

    engine = EventTimeEngine(
        queries, get_operator(operator_name), lateness=LATENESS
    )
    got = []
    for start in range(0, len(shuffled), batch_size):
        got.extend(
            engine.feed_many(shuffled[start : start + batch_size])
        )
    got.extend(engine.finish())

    assert engine.late_records == 0
    assert repr(got) == repr(expected)


class _ReorderModel:
    """What a bounded-lateness buffer must do, batch by batch."""

    def __init__(self, lateness):
        self.lateness = lateness
        self.pending, self.late = [], 0
        self.high = self.watermark = float("-inf")

    def late_rows(self, rows):
        return [row for row in rows if row[0] < self.watermark]

    def push_many(self, rows):
        late = self.late_rows(rows)
        self.late += len(late)
        accepted = [row for row in rows if row[0] >= self.watermark]
        self.pending = sorted(self.pending + accepted, key=lambda r: r[0])
        for stamp, _ in accepted:
            self.high = max(self.high, stamp)
        self.watermark = max(self.watermark, self.high - self.lateness)
        released = [r for r in self.pending if r[0] < self.watermark]
        del self.pending[: len(released)]
        return released, late


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_push_many_into_equals_reference_model(data):
    lateness = data.draw(st.sampled_from([0, 0.5, 2.0, 10.0]))
    policy = data.draw(st.sampled_from(["raise", "drop", "side_output"]))
    # Quarter-second ticks: gap 0 repeats a stamp, a straggle moves a
    # row back (within the bound, or beyond it: late), and whole ticks
    # may arrive as ints — equal to, but not the same as, their float.
    moves = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.sampled_from([0, 0, 0, 1, 3, 9, 30]),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    rows, tick = [], 0
    for number, (gap, straggle, as_int) in enumerate(moves):
        tick += gap
        late_tick = max(0, tick - straggle)
        stamp = late_tick / 4
        if as_int and late_tick % 4 == 0:
            stamp = late_tick // 4
        rows.append((stamp, number))
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=9), max_size=30)
    )

    handed = []
    buffer = TimestampReorderBuffer(
        lateness, policy, on_late=lambda ts, item: handed.append((ts, item))
    )
    model = _ReorderModel(lateness)
    index = 0
    for size in cuts + [len(rows)]:
        batch = rows[index : index + max(size, 1)]
        index += len(batch)
        out, before = [], len(handed)
        refused = policy == "raise" and model.late_rows(batch)

        def call():
            if size == 0:  # one row, through the per-record entry
                buffer.push_into(*batch[0], out)
            else:
                buffer.push_many_into(batch, out)

        if refused:
            with pytest.raises(LateRecordError) as info:
                call()
            assert info.value.timestamp == refused[0][0]
            assert info.value.watermark == model.watermark
            model.late += 1  # the named row is counted, nothing else moves
            released, late = [], []
        elif batch:
            call()
            released, late = model.push_many(batch)
        else:
            released, late = [], []
        assert repr(out) == repr(released)
        assert repr(handed[before:]) == repr(late)
        assert buffer.late_records == model.late
        assert buffer.high == model.high
        assert buffer.watermark == model.watermark
        assert len(buffer) == len(model.pending)
    assert repr(list(buffer.drain())) == repr(model.pending)


@settings(max_examples=40, deadline=None)
@given(
    timestamps=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    lateness=st.sampled_from([0.0, 0.5, 2.0, 10.0]),
)
def test_reorder_buffer_release_order_is_sorted(timestamps, lateness):
    buffer = TimestampReorderBuffer(lateness, policy="drop")
    released = []
    for index, timestamp in enumerate(timestamps):
        released.extend(buffer.push(timestamp, index))
    released.extend(buffer.drain())
    out = [timestamp for timestamp, _ in released]
    assert out == sorted(out)
    assert len(released) + buffer.late_records == len(timestamps)


def _checkpointable(name):
    """Operators built around a lambda cannot be snapshotted at all
    (``stream/checkpoint.py``, "Limitations")."""
    try:
        snapshot(get_operator(name))
    except CheckpointError:
        return False
    return True


#: Gaps between consecutive records in quarter-seconds: 0 repeats a
#: timestamp, an even running total lands exactly on a 0.5 s slice
#: boundary, and anything above 2 skips whole slices.
quarter_gaps = st.integers(min_value=0, max_value=14)


def _assert_equals_oracle(got, expected, operator_name):
    """``got`` against ``oracle.time_windows(..., held=True)``.

    An invertible operator leaves an emptied window the float zero of
    the values that left it (``x ⊖ x``) where folding nothing gives the
    identity ``0`` — equal, not identical — so the answers of windows
    that held no record are compared by ``==``.
    """
    assert len(got) == len(expected)
    for answer, (end, query, wanted, held) in zip(got, expected):
        if held:
            _assert_same([answer], [(end, query, wanted)], operator_name)
        else:
            assert answer[:2] == (end, query)
            assert answer[2] == wanted or (
                answer[2] != answer[2] and wanted != wanted
            ), (end, query)


@pytest.mark.parametrize("operator_name", OPERATOR_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_time_engine_feed_paths_equal_brute_force(operator_name, data):
    """``feed``, ``feed_many`` and any mix of them, bit for bit."""
    values = data.draw(_streams(operator_name))
    gaps = data.draw(
        st.lists(quarter_gaps, min_size=len(values), max_size=len(values))
    )
    plan = data.draw(call_plans)
    checkpoint_at = data.draw(st.integers(min_value=0, max_value=len(plan)))
    stream, tick = [], 0
    for gap, value in zip(gaps, values):
        tick += gap
        stream.append((tick / 4, value))

    queries = [TimeQuery(2.0, 1.0), TimeQuery(3.0, 1.5)]
    expected = oracle.time_windows(
        get_operator(operator_name), queries, stream, held=True
    )

    def engine():
        return TimeWindowEngine(queries, get_operator(operator_name))

    per_record = list(engine().run(stream))
    _assert_equals_oracle(per_record, expected, operator_name)

    bulk = engine()
    _assert_equals_oracle(
        bulk.feed_many(stream) + bulk.finish(), expected, operator_name
    )

    mixed, got, index = engine(), [], 0
    for call, size in enumerate(plan):
        if call == checkpoint_at and _checkpointable(operator_name):
            mixed = restore(snapshot(mixed))
        if size == 0 and index < len(stream):
            got += mixed.feed(*stream[index])
            index += 1
        else:
            got += mixed.feed_many(stream[index:index + size])
            index += size
    got += mixed.feed_many(stream[index:]) + mixed.finish()
    _assert_equals_oracle(got, expected, operator_name)
