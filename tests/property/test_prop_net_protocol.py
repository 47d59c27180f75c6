"""Property tests: the wire codec over arbitrary payloads.

Three properties the serving layer leans on:

* **round trip** — any encodable value survives
  ``decode(encode(v)) == v``, frames included;
* **prefix safety** — a strict prefix of a frame never decodes (the
  streaming decoder waits for more bytes instead of guessing);
* **corruption containment** — arbitrary corruption of a valid frame
  either raises :class:`~repro.errors.ProtocolError`, waits for more
  bytes, or decodes to *some* value — never an unexpected exception
  type escaping the codec;
* **submit table** — for every ingress shape, what the build half puts
  on the wire is what the parse half hands the gateway, and whatever
  the parse half accepts the gateway accepts;
* **one meaning, two bodies** — whichever body ``encode_frame`` picks
  for a batch (record columns or the tagged rows), the parse half
  yields the rows the tagged body yields, equal and type-equal, and a
  service fed either way gives the same answers; likewise eligible
  answers decode from answer columns to what the tagged rows decode to.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregationService, Query, TimeQuery, get_operator
from repro.errors import OutOfOrderError, ProtocolError
from repro.net.protocol import (
    HEADER,
    MAX_TRACE_ID,
    SUBMIT_SHAPES,
    FrameDecoder,
    FrameType,
    decode_answers,
    decode_value,
    encode_answer_columns,
    encode_answers,
    encode_frame,
    encode_value,
    try_decode_frame,
    try_decode_frame_traced,
)
from repro.service.gateway import ServiceGateway

from tests.unit.test_net_protocol import tagged_frame

# NaN breaks == comparison; it has its own explicit unit test.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: exercises the bigint fallback
    st.floats(allow_nan=False),
    st.text(),
    st.binary(),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(scalars, children, max_size=6),
    ),
    max_leaves=25,
)

frame_types = st.sampled_from(list(FrameType))


@given(values)
def test_value_round_trip(value):
    assert decode_value(encode_value(value)) == value


@given(frame_types, values)
def test_frame_round_trip(frame_type, payload):
    frame = encode_frame(frame_type, payload)
    decoded = try_decode_frame(frame)
    assert decoded is not None
    got_type, got_payload, consumed = decoded
    assert got_type is frame_type
    assert got_payload == payload
    assert consumed == len(frame)


@given(frame_types, values, st.data())
def test_strict_prefixes_never_decode(frame_type, payload, data):
    frame = encode_frame(frame_type, payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    assert try_decode_frame(frame[:cut]) is None


@given(frame_types, values, st.data())
@settings(max_examples=200)
def test_corruption_is_contained(frame_type, payload, data):
    """Flipping any byte never escapes as a non-ProtocolError crash."""
    frame = bytearray(encode_frame(frame_type, payload))
    index = data.draw(
        st.integers(min_value=0, max_value=len(frame) - 1)
    )
    flip = data.draw(st.integers(min_value=1, max_value=255))
    frame[index] ^= flip
    try:
        decoded = try_decode_frame(bytes(frame))
    except ProtocolError:
        return  # detected: the expected failure mode
    if decoded is None:
        return  # corrupted length field: decoder waits for more bytes
    got_type, got_payload, consumed = decoded
    assert got_type in FrameType
    assert 0 < consumed <= len(frame)


@given(st.binary(max_size=512))
def test_garbage_never_escapes_the_decoder(garbage):
    """Arbitrary bytes either wait, decode, or raise ProtocolError."""
    decoder = FrameDecoder()
    try:
        decoder.feed(garbage)
        for frame_type, _payload in decoder.frames():
            assert frame_type in FrameType
    except ProtocolError:
        pass


@given(frame_types, values, st.integers(min_value=1, max_value=7))
@settings(max_examples=50)
def test_streaming_decode_is_chunking_invariant(
    frame_type, payload, chunk_size
):
    """The decoder yields the same frames however the bytes arrive."""
    stream = encode_frame(frame_type, payload) * 3
    decoder = FrameDecoder()
    seen = []
    for start in range(0, len(stream), chunk_size):
        decoder.feed(stream[start : start + chunk_size])
        seen.extend(decoder.frames())
    assert seen == [(frame_type, payload)] * 3
    assert decoder.pending_bytes == 0


trace_ids = st.one_of(
    st.none(), st.integers(min_value=1, max_value=MAX_TRACE_ID)
)


@given(frame_types, values, trace_ids)
def test_traced_frame_round_trip(frame_type, payload, trace_id):
    """Any trace id (or none) survives the wire unchanged."""
    frame = encode_frame(frame_type, payload, trace_id=trace_id)
    decoded = try_decode_frame_traced(frame)
    assert decoded is not None
    got, consumed = decoded
    assert got.frame_type is frame_type
    assert got.payload == payload
    assert got.trace_id == trace_id
    assert consumed == len(frame)
    # The untraced API sees the same frame, minus the trace.
    assert try_decode_frame(frame) == (frame_type, payload, len(frame))


@given(frame_types, values, trace_ids, st.data())
def test_traced_strict_prefixes_never_decode(
    frame_type, payload, trace_id, data
):
    frame = encode_frame(frame_type, payload, trace_id=trace_id)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    assert try_decode_frame_traced(frame[:cut]) is None


@given(
    st.lists(
        st.tuples(frame_types, values, trace_ids),
        min_size=1,
        max_size=5,
    ),
    st.integers(min_value=1, max_value=7),
)
@settings(max_examples=50)
def test_mixed_version_streaming_is_chunking_invariant(
    messages, chunk_size
):
    """v1 and v2 frames interleave freely on one byte stream."""
    stream = b"".join(
        encode_frame(frame_type, payload, trace_id=trace_id)
        for frame_type, payload, trace_id in messages
    )
    decoder = FrameDecoder()
    seen = []
    for start in range(0, len(stream), chunk_size):
        decoder.feed(stream[start : start + chunk_size])
        seen.extend(decoder.frames_traced())
    assert [
        (frame.frame_type, frame.payload, frame.trace_id)
        for frame in seen
    ] == messages
    assert decoder.pending_bytes == 0


def test_nan_payload_round_trips_bitwise():
    decoded = decode_value(encode_value(math.nan))
    assert math.isnan(decoded)


@given(st.floats())
def test_every_float_round_trips(value):
    decoded = decode_value(encode_value(value))
    if math.isnan(value):
        assert math.isnan(decoded)
    else:
        assert decoded == value


# -- the submit table -----------------------------------------------

hashable = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
)
keys = st.one_of(hashable, st.lists(hashable, max_size=3).map(tuple))
timestamps = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0, max_value=1e6),
)
columns = st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8),
    st.lists(st.floats(allow_nan=False), max_size=8),
    st.lists(scalars, max_size=8),
)

#: Per frame type: client arguments for the build half, and the
#: gateway arguments they must come back as.
shape_cases = {
    FrameType.SUBMIT: st.tuples(keys, scalars).map(
        lambda kv: (kv, kv)
    ),
    FrameType.SUBMIT_BATCH: st.lists(
        st.tuples(keys, scalars), max_size=8
    ).map(lambda rows: ((rows,), (rows,))),
    FrameType.SUBMIT_COLUMN: st.tuples(keys, columns).map(
        lambda kc: (kc, ([(kc[0], value) for value in kc[1]],))
    ),
    FrameType.SUBMIT_EVENT: st.tuples(keys, scalars, timestamps).map(
        lambda kvt: (kvt, (kvt[0], kvt[1], float(kvt[2])))
    ),
    FrameType.SUBMIT_EVENT_BATCH: st.lists(
        st.tuples(keys, timestamps, scalars), max_size=8
    ).map(
        lambda rows: (
            (rows,),
            ([(key, float(ts), value) for key, ts, value in rows],),
        )
    ),
}


def test_every_shape_has_a_round_trip_case():
    assert set(shape_cases) == set(SUBMIT_SHAPES)


def _over_the_wire(request, trace_id=None):
    frame_type, payload, event_time = request
    decoded, _ = try_decode_frame_traced(
        encode_frame(frame_type, payload, trace_id, event_time)
    )
    return decoded


@pytest.mark.parametrize("frame_type", list(SUBMIT_SHAPES))
@given(st.data(), trace_ids)
@settings(max_examples=60)
def test_submit_build_parse_round_trip(frame_type, data, trace_id):
    """build -> encode_frame -> decode -> parse hands the gateway verb
    of the shape's row exactly the records that were built."""
    shape = SUBMIT_SHAPES[frame_type]
    built_from, expected = data.draw(shape_cases[frame_type])
    request = shape.build(*built_from)
    if frame_type is FrameType.SUBMIT_COLUMN and not built_from[1]:
        assert request is None  # an empty column builds nothing
        return
    assert request[0] is frame_type
    frame = _over_the_wire(request, trace_id)
    assert frame.frame_type is frame_type and frame.trace_id == trace_id
    args, count = shape.parse(frame.payload, frame.event_time)
    assert args == expected
    assert count == (
        1 if frame_type in (FrameType.SUBMIT, FrameType.SUBMIT_EVENT)
        else len(expected[0])
    )


def _gateway(timed: bool) -> ServiceGateway:
    if timed:
        service = AggregationService(
            [TimeQuery(2.0, 1.0)],
            get_operator("sum"),
            num_shards=2,
            mode="time",
            transport="inline",
            lateness=1.0,
            late_policy="drop",
        )
    else:
        service = AggregationService(
            [Query(4, 2)],
            get_operator("sum"),
            num_shards=2,
            transport="inline",
            batch_size=2,
        )
    return ServiceGateway(service)


# Payloads at and around each accepted shape — keys that may or may
# not hash, timestamps that may or may not be finite numbers, bodies
# of the right and the wrong type — so both verdicts are exercised.
maybe_keys = st.one_of(keys, keys, keys, values)  # mostly routable
maybe_timestamps = st.one_of(timestamps, st.floats(), values)
near_payloads = {
    FrameType.SUBMIT: st.tuples(maybe_keys, values),
    FrameType.SUBMIT_BATCH: st.lists(
        st.tuples(maybe_keys, values), max_size=5
    ),
    FrameType.SUBMIT_COLUMN: st.tuples(
        maybe_keys,
        st.sampled_from(["q", "d", "o", "z"]),
        st.one_of(
            st.binary(max_size=24),
            st.integers(0, 3).map(lambda n: bytes(8 * n)),
            st.lists(values, max_size=5),
        ),
    ),
    FrameType.SUBMIT_EVENT: st.tuples(maybe_keys, values),
    FrameType.SUBMIT_EVENT_BATCH: st.lists(
        st.tuples(maybe_keys, maybe_timestamps, values), max_size=5
    ),
}


@pytest.mark.parametrize("frame_type", list(SUBMIT_SHAPES))
@given(
    st.data(),
    st.one_of(st.none(), timestamps, st.floats()),
)
@settings(max_examples=60, deadline=None)
def test_what_parse_accepts_the_gateway_accepts(
    frame_type, data, event_time
):
    """The parse half is the only guard: a payload it lets through
    never makes the gateway raise anything but a specified refusal
    (an event timestamp before the origin), and is counted in full."""
    payload = data.draw(st.one_of(near_payloads[frame_type], values))
    shape = SUBMIT_SHAPES[frame_type]
    try:
        args, count = shape.parse(payload, event_time)
    except ProtocolError:
        return
    timed = shape.verb in ("submit_event", "submit_events")
    gateway = _gateway(timed)
    try:
        try:
            accepted = getattr(gateway, shape.verb)(*args, None)
        except OutOfOrderError:
            assert timed
        else:
            assert accepted == count
            assert gateway.snapshot()["records_submitted"] == count
    finally:
        gateway.abort()


# -- one meaning, two bodies ----------------------------------------

i64 = st.integers(-(2**63), 2**63 - 1)
wire_keys = st.one_of(
    st.none(),
    st.booleans(),
    i64,
    st.integers(),  # bigints: the compact table cannot carry them
    st.floats(),  # -0.0 and NaN included
    st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True]),  # equal, not same
    st.text(max_size=4),
    st.binary(max_size=4),
    st.tuples(st.text(max_size=2), i64),
)
value_columns = st.one_of(
    st.lists(i64, max_size=12),
    st.lists(st.floats(), max_size=12),
    st.lists(st.one_of(i64, st.floats(), st.booleans(), st.integers()), max_size=8),
)
stamp_values = st.one_of(
    st.floats(min_value=0, max_value=1e6),
    st.integers(min_value=0, max_value=10**6),
    st.floats(),  # NaN / inf: refused by either body's parse half
    st.booleans(),
    st.just(10**400),  # no f64 holds it: tagged, then refused
)


@st.composite
def row_lists(draw, arity):
    """Mostly eligible batches, bent in every way that makes one not."""
    column = draw(value_columns)
    rows = []
    for value in column:
        row = [draw(wire_keys), value]
        if arity == 3:
            row.insert(1, draw(stamp_values))
        bend = draw(st.integers(0, 19))
        if bend == 0:
            rows.append(row)  # a list row
        elif bend == 1:
            rows.append(tuple(row[:-1]))  # a short row
        elif bend == 2:
            rows.append(tuple(row) + (None,))  # a long row
        else:
            rows.append(tuple(row))
    return rows


def _parsed(frame):
    """``repr`` of the rows the parse half hands the gateway — equal
    and type-equal is ``repr``-equal for these types — or its refusal."""
    decoded, consumed = try_decode_frame_traced(frame)
    assert consumed == len(frame)
    shape = SUBMIT_SHAPES[decoded.frame_type]
    try:
        (records,), count = shape.parse(decoded.payload, None)
    except ProtocolError as refusal:
        return f"refused: {refusal}"
    rows = list(records)
    assert count == len(rows) == len(records)
    return repr(rows)


@pytest.mark.parametrize(
    "frame_type, arity",
    [(FrameType.SUBMIT_BATCH, 2), (FrameType.SUBMIT_EVENT_BATCH, 3)],
)
@given(st.data())
@settings(max_examples=150)
def test_either_body_parses_to_the_rows_the_tagged_body_gives(
    frame_type, arity, data
):
    rows = data.draw(row_lists(arity))
    assert _parsed(encode_frame(frame_type, rows)) == _parsed(
        tagged_frame(frame_type, rows)
    )


@given(
    st.lists(
        st.tuples(st.one_of(st.text(max_size=3), i64, st.none()), i64),
        min_size=1,
        max_size=12,
    )
)
def test_eligible_rows_do_travel_as_columns(rows):
    # The property above is not vacuous: these are always columnar.
    frame = encode_frame(FrameType.SUBMIT_BATCH, rows)
    assert frame[HEADER.size] == 0x0B
    assert _parsed(frame) == repr(rows)


@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", 3, None, b"k"]), st.integers(-99, 99)),
            max_size=9,
        ),
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_a_service_fed_either_body_gives_the_same_answers(chunks):
    def answers(encode):
        gateway = _gateway(timed=False)
        try:
            for chunk in chunks:
                decoded, _ = try_decode_frame_traced(
                    encode(FrameType.SUBMIT_BATCH, chunk)
                )
                args, count = SUBMIT_SHAPES[FrameType.SUBMIT_BATCH].parse(
                    decoded.payload, None
                )
                assert gateway.submit_many(*args, None) == count
            return gateway.close().answers
        finally:
            gateway.abort()

    assert answers(encode_frame) == answers(tagged_frame)


# -- answers: one meaning, two bodies -------------------------------

_NUMBERS = {
    "q": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "d": st.floats(allow_nan=False),
}
_QUERIES = st.sampled_from(
    [Query(8, 4), Query(16, 2, name="w"), TimeQuery(2.0, 1.0)]
)
eligible_answers = st.tuples(
    st.sampled_from("qd"), st.sampled_from("qd")
).flatmap(
    lambda kinds: st.lists(
        st.tuples(_NUMBERS[kinds[0]], _QUERIES, _NUMBERS[kinds[1]]),
        min_size=1,
        max_size=40,
    )
)


@given(eligible_answers)
def test_answer_columns_decode_to_the_tagged_answers(answers):
    rows = encode_answers(answers)
    columns = encode_answer_columns(answers)
    assert columns is not None
    (frame, _), (tagged, _) = (
        try_decode_frame_traced(encode_frame(FrameType.ANSWERS, payload))
        for payload in (columns, rows)
    )
    assert frame.payload == tagged.payload == rows
    decoded = decode_answers(frame.payload)
    assert repr(decoded) == repr(decode_answers(tagged.payload))
    assert repr(decoded) == repr(answers)
