"""Unit tests for the wire-protocol frame and value codec."""

from __future__ import annotations

import math
import pickle
import struct
import zlib

import pytest

from repro.errors import ProtocolError
from repro.net.protocol import (
    EVENT_TIME_PROTOCOL_VERSION,
    HEADER,
    LEGACY_PROTOCOL_VERSION,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MAX_TRACE_ID,
    PROTOCOL_VERSION,
    REPLY_TYPES,
    REQUEST_TYPES,
    SUBMIT_SHAPES,
    SUPPORTED_VERSIONS,
    FrameDecoder,
    AnswerColumns,
    FrameType,
    RecordColumns,
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
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery


class TestValueCodec:
    """encode_value / decode_value round trips and rejections."""

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**63 - 1,
            -(2**63),
            2**63,  # bigint fallback
            -(2**200),
            10**50,
            0.0,
            -2.5,
            1e300,
            "",
            "héllo wörld",
            "☃" * 100,
            b"",
            b"\x00\xff" * 10,
            [],
            [1, 2, 3],
            (),
            ("a", 1),
            {},
            {"k": [1, (2, None)], 5: b"x", None: True},
            [[[("deep",)]]],
        ],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_round_trip_preserves_types(self):
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)
        assert isinstance(decode_value(encode_value(True)), bool)
        assert isinstance(decode_value(encode_value(1)), int)
        assert isinstance(decode_value(encode_value(1.0)), float)

    def test_nan_and_infinities_round_trip(self):
        assert decode_value(encode_value(math.inf)) == math.inf
        assert decode_value(encode_value(-math.inf)) == -math.inf
        assert math.isnan(decode_value(encode_value(math.nan)))

    def test_unsupported_type_is_rejected(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_value(object())
        with pytest.raises(ProtocolError):
            encode_value({1, 2, 3})

    def test_unknown_tag_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown value tag"):
            decode_value(b"\x7f")

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(ProtocolError, match="trailing"):
            decode_value(encode_value(1) + b"\x00")

    def test_truncated_bodies_are_rejected(self):
        for value in (12345, "hello", b"bytes", [1, 2, 3], 2**100):
            encoded = encode_value(value)
            for cut in range(1, len(encoded)):
                with pytest.raises(ProtocolError):
                    decode_value(encoded[:cut])

    def test_invalid_utf8_in_string_body_is_rejected(self):
        encoded = bytearray(encode_value("ab"))
        encoded[-1] = 0xFF  # break the UTF-8 body
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_value(bytes(encoded))


class TestFrameCodec:
    """Framing: header validation, length limits, streaming decode."""

    def test_round_trip_every_frame_type(self):
        for frame_type in FrameType:
            frame = encode_frame(frame_type, {"n": 1})
            decoded = try_decode_frame(frame)
            assert decoded == (frame_type, {"n": 1}, len(frame))

    def test_incomplete_frames_return_none(self):
        frame = encode_frame(FrameType.SUBMIT, ("key", 42))
        for cut in range(len(frame)):
            assert try_decode_frame(frame[:cut]) is None

    def test_bad_magic_is_rejected(self):
        frame = bytearray(encode_frame(FrameType.POLL))
        frame[0] = ord("X")
        with pytest.raises(ProtocolError, match="magic"):
            try_decode_frame(bytes(frame))

    def test_unsupported_version_is_rejected(self):
        frame = bytearray(encode_frame(FrameType.POLL))
        frame[2] = max(SUPPORTED_VERSIONS) + 1
        with pytest.raises(ProtocolError, match="version"):
            try_decode_frame(bytes(frame))

    def test_unknown_frame_type_is_rejected(self):
        frame = bytearray(encode_frame(FrameType.POLL))
        frame[3] = 0x7F
        with pytest.raises(ProtocolError, match="frame type"):
            try_decode_frame(bytes(frame))

    def test_oversized_declared_length_is_rejected(self):
        header = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(FrameType.POLL),
            MAX_PAYLOAD_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="frame limit"):
            try_decode_frame(header)

    def test_decoder_streams_split_frames(self):
        frames = [
            encode_frame(FrameType.SUBMIT, ("k", 1)),
            encode_frame(FrameType.POLL),
            encode_frame(FrameType.SUBMIT_BATCH, [("k", 2)]),
        ]
        stream = b"".join(frames)
        decoder = FrameDecoder()
        seen = []
        # Feed one byte at a time: worst-case fragmentation.
        for index in range(len(stream)):
            decoder.feed(stream[index : index + 1])
            seen.extend(decoder.frames())
        assert seen == [
            (FrameType.SUBMIT, ("k", 1)),
            (FrameType.POLL, None),
            (FrameType.SUBMIT_BATCH, [("k", 2)]),
        ]
        assert decoder.pending_bytes == 0

    def test_decoder_poisons_after_framing_error(self):
        decoder = FrameDecoder()
        decoder.feed(b"XX" + b"\x00" * 10)
        with pytest.raises(ProtocolError):
            list(decoder.frames())
        with pytest.raises(ProtocolError, match="must be closed"):
            decoder.feed(b"more")

    def test_multiple_frames_in_one_buffer(self):
        buffer = encode_frame(FrameType.POLL) + encode_frame(
            FrameType.STATS
        )
        first = try_decode_frame(buffer)
        assert first[0] is FrameType.POLL
        second = try_decode_frame(buffer, first[2])
        assert second[0] is FrameType.STATS
        assert second[2] == len(buffer)


class TestTracedFrames:
    """The v2 trace-id field: minimal-version emission, back-compat."""

    def test_version_constants_are_consistent(self):
        assert PROTOCOL_VERSION == 2
        assert LEGACY_PROTOCOL_VERSION == 1
        assert EVENT_TIME_PROTOCOL_VERSION == 3
        assert SUPPORTED_VERSIONS == frozenset({1, 2, 3})

    def test_untraced_frame_is_byte_identical_v1(self):
        frame = encode_frame(FrameType.POLL, None)
        assert frame[2] == LEGACY_PROTOCOL_VERSION
        assert len(frame) == HEADER.size + len(encode_value(None))

    def test_traced_round_trip(self):
        trace = 0x1234_5678_9ABC_DEF0
        frame = encode_frame(FrameType.SUBMIT, ("k", 1), trace_id=trace)
        assert frame[2] == PROTOCOL_VERSION
        decoded, consumed = try_decode_frame_traced(frame)
        assert consumed == len(frame)
        assert decoded.frame_type is FrameType.SUBMIT
        assert decoded.payload == ("k", 1)
        assert decoded.trace_id == trace

    def test_traced_frame_is_header_plus_eight_bytes_larger(self):
        untraced = encode_frame(FrameType.POLL, None)
        traced = encode_frame(FrameType.POLL, None, trace_id=1)
        assert len(traced) == len(untraced) + 8

    def test_v1_frame_decodes_with_no_trace(self):
        frame = encode_frame(FrameType.STATS, None)
        decoded, consumed = try_decode_frame_traced(frame)
        assert consumed == len(frame)
        assert decoded.trace_id is None

    def test_zero_trace_field_on_the_wire_decodes_as_none(self):
        """A v2 peer may send an explicit 'no trace' zero field."""
        body = encode_value(None)
        frame = (
            HEADER.pack(
                MAGIC, PROTOCOL_VERSION, int(FrameType.POLL), len(body)
            )
            + (0).to_bytes(8, "big")
            + body
        )
        decoded, consumed = try_decode_frame_traced(frame)
        assert consumed == len(frame)
        assert decoded.trace_id is None

    def test_trace_id_bounds_are_enforced_at_encode_time(self):
        encode_frame(FrameType.POLL, None, trace_id=1)
        encode_frame(FrameType.POLL, None, trace_id=MAX_TRACE_ID)
        for bad in (0, -1, MAX_TRACE_ID + 1):
            with pytest.raises(ProtocolError, match="trace id"):
                encode_frame(FrameType.POLL, None, trace_id=bad)

    def test_truncated_v2_header_waits_for_more_bytes(self):
        frame = encode_frame(FrameType.SUBMIT, ("k", 1), trace_id=7)
        for cut in range(len(frame)):
            assert try_decode_frame_traced(frame[:cut]) is None

    def test_legacy_api_discards_the_trace(self):
        frame = encode_frame(FrameType.SUBMIT, ("k", 1), trace_id=7)
        assert try_decode_frame(frame) == (
            FrameType.SUBMIT, ("k", 1), len(frame),
        )

    def test_decoder_streams_mixed_version_frames(self):
        frames = [
            encode_frame(FrameType.SUBMIT, ("a", 1)),
            encode_frame(FrameType.SUBMIT, ("b", 2), trace_id=42),
            encode_frame(FrameType.POLL, None),
        ]
        blob = b"".join(frames)
        decoder = FrameDecoder()
        collected = []
        for cut in range(0, len(blob), 3):
            decoder.feed(blob[cut : cut + 3])
            collected.extend(decoder.frames_traced())
        assert [frame.trace_id for frame in collected] == [None, 42, None]
        assert [frame.payload for frame in collected] == [
            ("a", 1), ("b", 2), None,
        ]

    def test_oversized_traced_length_is_rejected(self):
        header = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(FrameType.POLL),
            MAX_PAYLOAD_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="frame limit"):
            try_decode_frame_traced(header + (1).to_bytes(8, "big"))


class TestAnswerMarshalling:
    """Queries travel as (range, slide, name) specs, not objects."""

    def test_global_answers_round_trip(self):
        answers = [
            (4, Query(8, 4), 10),
            (8, Query(8, 4, name="custom"), -3),
        ]
        rows = encode_answers(answers)
        assert decode_answers(rows) == answers
        # The marshalled form itself must be wire-encodable.
        assert decode_value(encode_value(rows)) == rows

    def test_per_key_answers_keep_their_key(self):
        answers = [("sensor-1", 4, Query(6, 2), 7.5)]
        assert decode_answers(encode_answers(answers)) == answers

    def test_malformed_query_spec_is_rejected(self):
        with pytest.raises(ProtocolError, match="query spec"):
            decode_answers([(4, "not-a-spec", 10)])
        with pytest.raises(ProtocolError, match="query spec"):
            decode_answers([(4, (8, 4, ["unhashable"], "extra", 5), 10)])

    def test_one_query_object_per_spec_per_call(self):
        # A poll repeats its few specs dozens of times: each is built
        # (and validated) once per call, and list specs — which an
        # old peer may send — still decode.
        count, timed = Query(8, 4), TimeQuery(2.0, 1.0)
        answers = [(4, count, 1), (4.0, timed, 2), (8, count, 3), (5.0, timed, 4)]
        rows = encode_answers(answers)
        assert rows[0][1] is rows[2][1] and rows[1][1] is rows[3][1]
        decoded = decode_answers(rows)
        assert decoded == answers
        assert decoded[0][1] is decoded[2][1]
        assert decoded[1][1] is decoded[3][1]
        assert decode_answers([(4, [8, 4, "q8/4"], 1)]) == [answers[0]]
        # Nothing is remembered between calls.
        assert decode_answers(rows)[0][1] is not decoded[0][1]


class TestGoldenFrames:
    """``encode_frame`` has one body; its bytes are the parent's.

    Hex captured at the commit that still had one ``return`` per
    version.  (The request each client method sends, and the server's
    replies, are pinned in ``tests/integration/test_net_conformance.py``.)
    """

    @pytest.mark.parametrize(
        "arguments, expected",
        [
            (
                (FrameType.SUBMIT_BATCH, [("a", 1), ("b", 2.5)]),
                "534401020000002d08000000020900000002060000000161"
                "03000000000000000109000000020600000001620540040000"
                "00000000",
            ),
            (
                (FrameType.OK, {"accepted": 3}, 0x0102030405060708),
                "534402810000001b01020304050607080a00000001060000"
                "00086163636570746564030000000000000003",
            ),
            (
                (FrameType.SUBMIT_EVENT, ("k", None), None, 1.5),
                "534403080000000c00000000000000003ff8000000000000"
                "090000000206000000016b00",
            ),
            (
                (FrameType.SUBMIT_EVENT, ("k", None), 77, -0.25),
                "534403080000000c000000000000004dbfd0000000000000"
                "090000000206000000016b00",
            ),
        ],
        ids=["v1", "v2", "v3", "v3-traced"],
    )
    def test_frame_bytes_are_unchanged(self, arguments, expected):
        frame = encode_frame(*arguments)
        assert frame.hex() == expected
        decoded, consumed = try_decode_frame_traced(frame)
        assert consumed == len(frame)
        assert tuple(decoded)[: len(arguments)] == arguments


def parse(frame_type, payload, event_time=None):
    """The table's parse half for one decoded frame."""
    return SUBMIT_SHAPES[frame_type].parse(payload, event_time)


class TestSubmitTable:
    """One row per ingress shape; the parse half guards the gateway."""

    def test_every_record_carrying_frame_type_has_a_row(self):
        # A sixth SUBMIT_* member cannot join the enum without a row
        # (and so without a build half, a parse half and a verb).
        carrying = {
            member
            for member in FrameType
            if member.name.startswith("SUBMIT")
        }
        assert set(SUBMIT_SHAPES) == carrying
        for shape in SUBMIT_SHAPES.values():
            assert callable(getattr(ServiceGateway, shape.verb))

    def test_request_and_reply_types_split_the_enum(self):
        assert REQUEST_TYPES | REPLY_TYPES == set(FrameType)
        assert not REQUEST_TYPES & REPLY_TYPES
        assert set(SUBMIT_SHAPES) < REQUEST_TYPES
        assert FrameType.CLOSE in REQUEST_TYPES
        assert FrameType.ERROR in REPLY_TYPES

    def test_rows_the_codec_decoded_as_lists_are_retupled(self):
        assert parse(FrameType.SUBMIT_BATCH, (["a", 1], ("b", 2))) == (
            ([("a", 1), ("b", 2)],),
            2,
        )
        assert parse(FrameType.SUBMIT, ["a", 1]) == (("a", 1), 1)

    def test_event_timestamps_become_floats(self):
        args, count = parse(FrameType.SUBMIT_EVENT_BATCH, [("a", 1, 10)])
        assert (args, count) == (([("a", 1.0, 10)],), 1)
        assert type(args[0][0][1]) is float
        assert parse(FrameType.SUBMIT_EVENT, ("a", 10), 2.5) == (
            ("a", 10, 2.5),
            1,
        )

    def test_packed_column_parses_to_rows_of_its_key(self):
        assert SUBMIT_SHAPES[FrameType.SUBMIT_COLUMN].verb == "submit_many"
        packed = struct.pack("<2d", 0.5, -0.0)
        parsed = parse(FrameType.SUBMIT_COLUMN, ("k", "d", packed))
        assert repr(parsed) == repr((([("k", 0.5), ("k", -0.0)],), 2))
        (rows,), count = parse(FrameType.SUBMIT_COLUMN, ("k", "o", [True, 7]))
        assert rows == [("k", True), ("k", 7)] and count == 2
        assert type(rows[0][1]) is bool
        assert parse(FrameType.SUBMIT_COLUMN, ("k", "q", b"")) == (([],), 0)

    @pytest.mark.parametrize(
        "frame_type, payload, event_time, message",
        [
            (FrameType.SUBMIT, "ab", None, "pair"),
            (FrameType.SUBMIT, ("k", 1, 2), None, "pair"),
            (FrameType.SUBMIT_BATCH, 5, None, "sequence"),
            (FrameType.SUBMIT_BATCH, ["ab"], None, "pair"),
            (FrameType.SUBMIT_BATCH, [("k",)], None, "pair"),
            (FrameType.SUBMIT_COLUMN, ("k", "q"), None, "triple"),
            (FrameType.SUBMIT_COLUMN, ("k", "z", b""), None, "kind"),
            (FrameType.SUBMIT_COLUMN, ("k", "d", "x"), None, "bytes"),
            (FrameType.SUBMIT_COLUMN, ("k", "q", b"123"), None, "of 8"),
            (FrameType.SUBMIT_COLUMN, ("k", "o", 4), None, "sequence"),
            (FrameType.SUBMIT_EVENT, ("k", 1), None, "v3"),
            (FrameType.SUBMIT_EVENT, "kv", 1.0, "pair"),
            (FrameType.SUBMIT_EVENT_BATCH, "x", None, "sequence"),
            (FrameType.SUBMIT_EVENT_BATCH, [("k", 1.0)], None, "triple"),
            (FrameType.SUBMIT_EVENT_BATCH, [("k", True, 1)], None, "number"),
            (FrameType.SUBMIT_EVENT_BATCH, [("k", "1", 1)], None, "number"),
            # A key that does not hash could not be routed.
            (FrameType.SUBMIT, (["x"], 1), None, "routed"),
            (FrameType.SUBMIT_BATCH, [("a", 1), ({}, 2)], None, "routed"),
            (FrameType.SUBMIT_COLUMN, (["x"], "o", [1]), None, "routed"),
            (FrameType.SUBMIT_EVENT, (["x"], 1), 1.0, "routed"),
            (
                FrameType.SUBMIT_EVENT_BATCH,
                [(("a", ["x"]), 1.0, 1)],
                None,
                "routed",
            ),
            # An int no f64 holds (appended: the index is in the test id).
            (FrameType.SUBMIT_EVENT_BATCH, [("k", 10**400, 1)], None, "finite"),
            (FrameType.SUBMIT_EVENT, ("k", 1), 10**400, "finite"),
        ],
    )
    def test_refused_payloads_raise_protocol_error(
        self, frame_type, payload, event_time, message
    ):
        with pytest.raises(ProtocolError, match=message):
            parse(frame_type, payload, event_time)


# -- record columns -------------------------------------------------


def tagged_frame(frame_type, payload, trace_id=None):
    """The frame an old client sends: the tagged body whatever the rows."""
    body = encode_value(payload)
    if trace_id is None:
        return HEADER.pack(MAGIC, 1, int(frame_type), len(body)) + body
    head = HEADER.pack(MAGIC, 2, int(frame_type), len(body))
    return head + struct.pack(">Q", trace_id) + body


def sealed(count, table, flags, columns, crc=None):
    """A record-columns payload with a valid (or the given) CRC."""
    covered = struct.pack("<IIB", count, len(table), flags) + columns + table
    if crc is None:
        crc = zlib.crc32(covered)
    return b"\x0b" + struct.pack("<I", crc) + covered


def framed(frame_type, payload):
    return HEADER.pack(MAGIC, 1, int(frame_type), len(payload)) + payload


def decode_one(frame):
    decoded, consumed = try_decode_frame_traced(frame)
    assert consumed == len(frame)
    return decoded


TABLE_AB = struct.pack("<I", 2) + b"\x03\x01\x00\x00\x00a\x03\x01\x00\x00\x00b"
TWO_INTS = struct.pack("<qq", 10, 20)
CODES_01 = struct.pack("<II", 0, 1)
STAMPS = struct.pack("<dd", 1.0, 2.5)


class TestRecordColumns:
    """SUBMIT_BATCH / SUBMIT_EVENT_BATCH travel as columns when the
    rows are eligible; every other row list travels tagged, as before."""

    def test_eligible_rows_travel_as_columns(self):
        rows = [("a", 10), ("b", 20)]
        frame = encode_frame(FrameType.SUBMIT_BATCH, rows)
        assert frame == framed(
            FrameType.SUBMIT_BATCH, sealed(2, TABLE_AB, 0, TWO_INTS + CODES_01)
        )
        events = [("a", 1.0, 10), ("b", 2.5, 20)]
        frame = encode_frame(FrameType.SUBMIT_EVENT_BATCH, events, trace_id=7)
        body = sealed(2, TABLE_AB, 0x08, TWO_INTS + CODES_01 + STAMPS)
        assert frame[HEADER.size + 8 :] == body
        assert decode_one(frame).trace_id == 7

    def test_the_view_is_sized_iterates_as_rows_and_equals_them(self):
        rows = [("a", 1.5), (None, -0.0), ("a", 2.5), (7, 3.5), (b"k", 4.5)]
        payload = decode_one(encode_frame(FrameType.SUBMIT_BATCH, rows)).payload
        assert type(payload) is RecordColumns
        assert len(payload) == 5
        assert payload.values.format == "d" and payload.codes.format == "I"
        assert payload.key_table == ["a", None, 7, b"k"]
        assert list(payload) == rows and list(payload) == rows  # re-iterable
        assert repr(list(payload)) == repr(rows)  # -0.0 and types survive
        assert payload == rows and rows == payload
        assert payload != rows[:-1] and payload != tuple(rows)
        assert repr(payload) == f"RecordColumns({rows!r})"
        events = [("a", 1.0, 10), ("b", 2.5, 20)]
        payload = decode_one(
            encode_frame(FrameType.SUBMIT_EVENT_BATCH, events)
        ).payload
        assert list(payload) == events and payload == events
        assert payload.timestamps.format == "d"

    def test_parse_halves_take_either_body(self):
        rows = [("a", 1), ("b", 2), ("a", 3)]
        events = [("a", 1, 10), ("b", 2.5, 20)]
        for frame_type, records, floated in [
            (FrameType.SUBMIT_BATCH, rows, rows),
            (
                FrameType.SUBMIT_EVENT_BATCH,
                events,
                [("a", 1.0, 10), ("b", 2.5, 20)],
            ),
        ]:
            columnar = decode_one(encode_frame(frame_type, records))
            tagged = decode_one(tagged_frame(frame_type, records))
            assert type(columnar.payload) is RecordColumns
            assert type(tagged.payload) is list
            (got,), count = parse(frame_type, columnar.payload)
            (want,), want_count = parse(frame_type, tagged.payload)
            assert count == want_count == len(records)
            assert repr(list(got)) == repr(want) == repr(floated)

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [("a", 1), ["b", 2]],  # a list row
            (("a", 1), ("b", 2)),  # a tuple of rows
            [("a", 1), ("b", 2.5)],  # mixed value types
            [("a", True), ("b", False)],  # bools are not i64s
            [("a", 1), ("b", 2**63)],  # a bigint value
            [("a", "x")],  # a non-numeric value
            [(("a", 1), 1)],  # a tuple key
            [(2**64, 1)],  # a bigint key
            [(["a"], 1)],  # a key that does not hash
            [("a", 1), ("b",)],  # a short row
            [("a", 1, 2)],  # a long row
        ],
    )
    def test_ineligible_rows_travel_tagged_byte_identical(self, rows):
        frame = encode_frame(FrameType.SUBMIT_BATCH, rows, trace_id=3)
        assert frame == tagged_frame(FrameType.SUBMIT_BATCH, rows, 3)

    @pytest.mark.parametrize(
        "rows",
        [
            [("a", True, 1)],  # a bool timestamp
            [("a", "1", 1)],  # a string timestamp
            [("a", 10**400, 1)],  # a timestamp no f64 holds
            [("a", 1.0, 1), ("b", 2.0, 2.5)],  # mixed value types
            [("a", 1)],  # pairs on the triple shape
        ],
    )
    def test_ineligible_event_rows_travel_tagged(self, rows):
        frame = encode_frame(FrameType.SUBMIT_EVENT_BATCH, rows)
        assert frame == tagged_frame(FrameType.SUBMIT_EVENT_BATCH, rows)

    def test_only_the_two_batch_shapes_ever_encode_as_columns(self):
        rows = [("a", 1), ("b", 2)]
        for frame_type in FrameType:
            frame = encode_frame(frame_type, rows)
            columnar = frame[HEADER.size] == 0x0B
            assert columnar == (frame_type is FrameType.SUBMIT_BATCH)

    # -- structural damage: a framing error, at decode ---------------

    def test_tag_is_refused_anywhere_but_a_whole_batch_payload(self):
        payload = sealed(2, TABLE_AB, 0, TWO_INTS + CODES_01)
        assert decode_one(framed(FrameType.SUBMIT_BATCH, payload)).payload == [
            ("a", 10),
            ("b", 20),
        ]
        for frame_type in set(FrameType) - {
            FrameType.SUBMIT_BATCH,
            FrameType.SUBMIT_EVENT_BATCH,
        }:
            with pytest.raises(ProtocolError, match="unknown value tag 0x0b"):
                try_decode_frame_traced(framed(frame_type, payload))
        nested = b"\x08" + struct.pack(">I", 1) + payload
        with pytest.raises(ProtocolError, match="unknown value tag 0x0b"):
            try_decode_frame_traced(framed(FrameType.SUBMIT_BATCH, nested))
        with pytest.raises(ProtocolError, match="unknown value tag 0x0b"):
            decode_value(payload)

    def test_truncated_header_is_refused(self):
        payload = sealed(2, TABLE_AB, 0, TWO_INTS + CODES_01)
        for size in range(1, 14):
            with pytest.raises(ProtocolError, match="header"):
                try_decode_frame_traced(
                    framed(FrameType.SUBMIT_BATCH, payload[:size])
                )

    def test_length_is_checked_against_the_count_before_anything_is_sized(self):
        # 4 billion records declared over a 24-byte body: refused by
        # arithmetic, with a valid CRC, not by trying to view them.
        payload = sealed(0xFFFFFFFF, TABLE_AB, 0, TWO_INTS + CODES_01)
        with pytest.raises(ProtocolError, match="expected"):
            try_decode_frame_traced(framed(FrameType.SUBMIT_BATCH, payload))
        for columns in (TWO_INTS + CODES_01[:4], TWO_INTS + CODES_01 + b"\0"):
            with pytest.raises(ProtocolError, match="expected"):
                try_decode_frame_traced(
                    framed(
                        FrameType.SUBMIT_BATCH, sealed(2, TABLE_AB, 0, columns)
                    )
                )

    def test_crc_mismatch_is_refused(self):
        good = sealed(2, TABLE_AB, 0, TWO_INTS + CODES_01)
        bad_crc = sealed(2, TABLE_AB, 0, TWO_INTS + CODES_01, crc=0)
        with pytest.raises(ProtocolError, match="CRC"):
            try_decode_frame_traced(framed(FrameType.SUBMIT_BATCH, bad_crc))
        # One damaged value byte is still two plausible i64s: only the
        # CRC can tell.
        damaged = bytearray(good)
        damaged[14] ^= 0x01
        with pytest.raises(ProtocolError, match="CRC"):
            try_decode_frame_traced(
                framed(FrameType.SUBMIT_BATCH, bytes(damaged))
            )

    @pytest.mark.parametrize("flags", [0x02, 0x10, 0x80, 0x01 | 0x40])
    def test_unknown_flag_bits_are_refused(self, flags):
        payload = sealed(2, TABLE_AB, flags, TWO_INTS + CODES_01)
        with pytest.raises(ProtocolError, match="flag bits"):
            try_decode_frame_traced(framed(FrameType.SUBMIT_BATCH, payload))

    def test_pickled_keys_flag_on_the_wire_never_reaches_pickle_loads(
        self, monkeypatch
    ):
        # The ring's frame may carry a pickled key table (flag 0x04);
        # the wire must refuse the flag without looking at the table.
        def loads(*args, **kwargs):
            raise AssertionError("the server unpickled bytes off the wire")

        monkeypatch.setattr(pickle, "loads", loads)
        table = pickle.dumps(("a", "b"), protocol=5)
        payload = sealed(2, table, 0x04, TWO_INTS + CODES_01)
        with pytest.raises(ProtocolError, match="pickled key table"):
            try_decode_frame_traced(framed(FrameType.SUBMIT_BATCH, payload))

    def test_timestamp_column_must_match_the_frame_type(self):
        timed = sealed(2, TABLE_AB, 0x08, TWO_INTS + CODES_01 + STAMPS)
        plain = sealed(2, TABLE_AB, 0, TWO_INTS + CODES_01)
        assert decode_one(framed(FrameType.SUBMIT_EVENT_BATCH, timed)).payload
        with pytest.raises(ProtocolError, match="timestamp column"):
            try_decode_frame_traced(framed(FrameType.SUBMIT_BATCH, timed))
        with pytest.raises(ProtocolError, match="timestamp column"):
            try_decode_frame_traced(
                framed(FrameType.SUBMIT_EVENT_BATCH, plain)
            )

    def test_damaged_key_table_is_a_protocol_error(self):
        # Every case of the shared decoder is pinned, through both
        # envelopes, in test_transport_frame.py; here: it is wired in.
        table = struct.pack("<I", 2) + b"\x03\x01\x00\x00\x00a\x03\x09\x00\x00\x00b"
        payload = sealed(2, table, 0, TWO_INTS + CODES_01)
        with pytest.raises(ProtocolError, match="past the table"):
            try_decode_frame_traced(framed(FrameType.SUBMIT_BATCH, payload))

    def test_structural_damage_poisons_the_stream_decoder(self):
        decoder = FrameDecoder()
        decoder.feed(
            framed(
                FrameType.SUBMIT_BATCH,
                sealed(2, TABLE_AB, 0, TWO_INTS + CODES_01, crc=1),
            )
        )
        with pytest.raises(ProtocolError, match="CRC"):
            list(decoder.frames())
        with pytest.raises(ProtocolError, match="framing error"):
            decoder.feed(b"")

    # -- semantic refusal: the parse half's, nothing touched ----------

    def test_key_code_outside_the_table_is_the_parse_halfs_refusal(self):
        codes = struct.pack("<II", 0, 2)
        payload = sealed(2, TABLE_AB, 0, TWO_INTS + codes)
        frame = decode_one(framed(FrameType.SUBMIT_BATCH, payload))
        with pytest.raises(ProtocolError, match="key code outside"):
            parse(FrameType.SUBMIT_BATCH, frame.payload)
        timed = sealed(2, TABLE_AB, 0x08, TWO_INTS + codes + STAMPS)
        frame = decode_one(framed(FrameType.SUBMIT_EVENT_BATCH, timed))
        with pytest.raises(ProtocolError, match="key code outside"):
            parse(FrameType.SUBMIT_EVENT_BATCH, frame.payload)
        # Also for whoever iterates a view nobody parsed.
        with pytest.raises(ProtocolError, match="key code outside"):
            list(frame.payload)

    @pytest.mark.parametrize("stamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_is_the_parse_halfs_refusal(self, stamp):
        stamps = struct.pack("<dd", 1.0, stamp)
        payload = sealed(2, TABLE_AB, 0x08, TWO_INTS + CODES_01 + stamps)
        frame = decode_one(framed(FrameType.SUBMIT_EVENT_BATCH, payload))
        with pytest.raises(ProtocolError, match="must be finite"):
            parse(FrameType.SUBMIT_EVENT_BATCH, frame.payload)

    def test_an_empty_batch_of_columns_is_an_empty_batch(self):
        empty_table = struct.pack("<I", 0)
        frame = decode_one(
            framed(FrameType.SUBMIT_BATCH, sealed(0, empty_table, 0, b""))
        )
        assert parse(FrameType.SUBMIT_BATCH, frame.payload) == (([],), 0)

    # -- every byte, every offset --------------------------------------

    @pytest.mark.parametrize(
        "frame_type, rows",
        [
            (FrameType.SUBMIT_BATCH, [("a", 1), ("b", 2), ("a", 3)]),
            (FrameType.SUBMIT_EVENT_BATCH, [("a", 1.0, 1.5), (7, 2.0, 2.5)]),
        ],
    )
    def test_no_flipped_byte_or_truncation_escapes_as_another_error(
        self, frame_type, rows
    ):
        frame = encode_frame(frame_type, rows)
        for index in range(len(frame)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(frame)
                damaged[index] ^= mask
                try:
                    decoded = try_decode_frame_traced(bytes(damaged))
                    if decoded is not None and decoded[0].frame_type in SUBMIT_SHAPES:
                        parse(decoded[0].frame_type, decoded[0].payload)
                except ProtocolError:
                    continue
                # What still decodes did not touch the columns: the
                # CRC covers every byte after itself.
                assert index < HEADER.size or decoded is None, index
        payload = frame[HEADER.size :]
        for size in range(len(payload)):
            with pytest.raises(ProtocolError):
                try_decode_frame_traced(framed(frame_type, payload[:size]))
            assert try_decode_frame_traced(frame[: HEADER.size + size]) is None


# -- answer columns -------------------------------------------------

COUNT_Q, WIDE_Q = Query(8, 4), Query(16, 2, name="wide")
SPECS = encode_value([(8, 4, "q8/4"), (16, 2, "wide")])


def answer_payload(count, table, flags, columns, crc=None):
    """An answer-columns payload with a valid (or the given) CRC."""
    covered = struct.pack("<IIB", count, len(table), flags) + columns + table
    if crc is None:
        crc = zlib.crc32(covered)
    return b"\x0c" + struct.pack("<I", crc) + covered


def answers_frame(payload):
    return framed(FrameType.ANSWERS, payload)


#: Two answers, (4, COUNT_Q, 10) and (8, WIDE_Q, 20), as columns.
TWO_ANSWERS = struct.pack("<qq", 4, 8) + CODES_01 + TWO_INTS


class TestAnswerColumns:
    """ANSWERS travels as columns when the server chooses (a HELLO
    connection) and the answers are eligible; the decoder takes either
    body, and every damaged byte is a ProtocolError."""

    def test_eligible_answers_encode_to_the_documented_layout(self):
        answers = [(4, COUNT_Q, 10), (8, WIDE_Q, 20)]
        columns = encode_answer_columns(answers)
        assert type(columns) is AnswerColumns
        frame = encode_frame(FrameType.ANSWERS, columns, trace_id=9)
        assert frame[HEADER.size + 8 :] == answer_payload(
            2, SPECS, 0, TWO_ANSWERS
        )
        decoded = decode_one(frame)
        assert decoded.trace_id == 9
        assert decoded.payload == encode_answers(answers)
        # What was decoded encodes back to the same bytes.
        assert encode_frame(FrameType.ANSWERS, decoded.payload, 9) == frame

    def test_float_positions_and_values_are_flagged(self):
        timed = TimeQuery(2.0, 1.0)
        answers = [(3.0, timed, 0.5), (4.0, timed, -0.0)]
        frame = encode_frame(FrameType.ANSWERS, encode_answer_columns(answers))
        assert frame[HEADER.size + 13] == 0x01 | 0x02
        payload = decode_one(frame).payload
        assert payload.positions.format == "d"
        assert payload.values.format == "d"
        assert repr(decode_answers(payload)) == repr(answers)

    def test_the_view_is_sized_iterates_as_rows_and_equals_them(self):
        answers = [(4, COUNT_Q, 10), (8, WIDE_Q, 20), (8, COUNT_Q, -3)]
        rows = encode_answers(answers)
        columns = encode_answer_columns(answers)
        payload = decode_one(encode_frame(FrameType.ANSWERS, columns)).payload
        for view in (columns, payload):
            assert len(view) == 3
            assert list(view) == rows and list(view) == rows  # re-iterable
            assert view == rows and rows == view
            assert view != rows[:-1] and view != tuple(rows)
            assert repr(view) == f"AnswerColumns({rows!r})"
        assert payload.slots.format == "I"
        assert payload.specs == [(8, 4, "q8/4"), (16, 2, "wide")]

    def test_decode_answers_takes_either_body(self):
        count, timed = Query(8, 4), TimeQuery(2.0, 1.0, name="w")
        for answers in (
            [(4, count, 1), (8, count, 2**62), (8, WIDE_Q, -7)],
            [(4, count, 1.5), (8, count, float("inf")), (8, WIDE_Q, 0.5)],
            [(1.0, timed, 3), (2.0, timed, 4)],
        ):
            columnar = decode_one(
                encode_frame(FrameType.ANSWERS, encode_answer_columns(answers))
            ).payload
            tagged = decode_one(
                encode_frame(FrameType.ANSWERS, encode_answers(answers))
            ).payload
            assert type(columnar) is AnswerColumns and type(tagged) is list
            got, want = decode_answers(columnar), decode_answers(tagged)
            assert repr(got) == repr(want) == repr(answers)
            # One query object per spec per reply.
            assert got[0][1] is got[1][1]

    @pytest.mark.parametrize(
        "answers",
        [
            [],
            [("k", 4, COUNT_Q, 1)],  # per-key four-tuples
            [(4, COUNT_Q, "max")],  # max over strings
            [(4, COUNT_Q, 2**63)],  # a bigint value
            [(2**63, COUNT_Q, 1)],  # a bigint position
            [(4, COUNT_Q, 1), (8, COUNT_Q, 1.5)],  # mixed value types
            [(4, COUNT_Q, 1), (8.0, COUNT_Q, 2)],  # mixed position types
            [(4, COUNT_Q, True)],  # bools are not i64s
            [(4, COUNT_Q, None)],
            [[4, COUNT_Q, 1]],  # a list answer
            [(4, COUNT_Q)],  # a short answer
        ],
    )
    def test_ineligible_answers_stay_tagged(self, answers):
        assert encode_answer_columns(answers) is None
        assert encode_answer_columns(tuple(answers)) is None

    def test_only_answers_frames_carry_columns(self):
        columns = encode_answer_columns([(4, COUNT_Q, 10)])
        for frame_type in set(FrameType) - {FrameType.ANSWERS}:
            with pytest.raises(ProtocolError, match="cannot encode"):
                encode_frame(frame_type, columns)
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_frame(FrameType.ANSWERS, [columns])
        # A tagged row list on ANSWERS stays the tagged body.
        rows = encode_answers([(4, COUNT_Q, 10)])
        assert encode_frame(FrameType.ANSWERS, rows) == tagged_frame(
            FrameType.ANSWERS, rows
        )

    # -- damage: ProtocolError and nothing else ------------------------

    def test_short_header_is_refused(self):
        payload = answer_payload(2, SPECS, 0, TWO_ANSWERS)
        for size in range(1, 14):
            with pytest.raises(ProtocolError, match="header"):
                decode_one(answers_frame(payload[:size]))

    def test_crc_mismatch_is_refused(self):
        bad_crc = answer_payload(2, SPECS, 0, TWO_ANSWERS, crc=0)
        with pytest.raises(ProtocolError, match="CRC"):
            decode_one(answers_frame(bad_crc))
        damaged = bytearray(answer_payload(2, SPECS, 0, TWO_ANSWERS))
        damaged[14] ^= 0x01  # one position byte: still a plausible i64
        with pytest.raises(ProtocolError, match="CRC"):
            decode_one(answers_frame(bytes(damaged)))

    def test_length_must_be_count_times_widths_plus_table(self):
        for count, columns in [
            (0xFFFFFFFF, TWO_ANSWERS),  # refused by arithmetic
            (3, TWO_ANSWERS),
            (2, TWO_ANSWERS[:-1]),
            (2, TWO_ANSWERS + b"\0"),
        ]:
            payload = answer_payload(count, SPECS, 0, columns)
            with pytest.raises(ProtocolError, match="expected"):
                decode_one(answers_frame(payload))

    @pytest.mark.parametrize("flags", [0x04, 0x08, 0x10, 0x80, 0x01 | 0x40])
    def test_unknown_flag_bits_are_refused(self, flags):
        payload = answer_payload(2, SPECS, flags, TWO_ANSWERS)
        with pytest.raises(ProtocolError, match="flag bits"):
            decode_one(answers_frame(payload))

    def test_slot_outside_the_spec_table_is_refused(self):
        columns = struct.pack("<qqII", 4, 8, 0, 2) + TWO_INTS
        with pytest.raises(ProtocolError, match="slot outside"):
            decode_one(answers_frame(answer_payload(2, SPECS, 0, columns)))
        no_specs = answer_payload(2, encode_value([]), 0, TWO_ANSWERS)
        with pytest.raises(ProtocolError, match="slot outside"):
            decode_one(answers_frame(no_specs))

    @pytest.mark.parametrize(
        "table",
        [
            encode_value((8, 4, "q8/4")),  # not a list
            encode_value({"a": 1}),
            SPECS[:-1],  # truncated
            SPECS + b"\0",  # trailing bytes
            b"\x0c" + SPECS,  # the envelope's own tag, nested
            encode_value(["q8/4", (16, 2, "wide")]),  # a spec of wrong shape
            encode_value([(8, 4), (16, 2, "wide")]),
            encode_value([(0, 4, "q"), (16, 2, "wide")]),  # refused range
            encode_value([("8", 4, "q"), (16, 2, "wide")]),
            encode_value([("time", -1.0, 1.0, "t"), (16, 2, "wide")]),
        ],
    )
    def test_malformed_spec_table_is_refused(self, table):
        frame = answers_frame(answer_payload(2, table, 0, TWO_ANSWERS))
        with pytest.raises(ProtocolError):
            decode_answers(decode_one(frame).payload)

    def test_tag_is_refused_anywhere_but_a_whole_answers_payload(self):
        payload = answer_payload(2, SPECS, 0, TWO_ANSWERS)
        assert decode_one(answers_frame(payload)).payload
        for frame_type in set(FrameType) - {FrameType.ANSWERS}:
            with pytest.raises(ProtocolError, match="unknown value tag 0x0c"):
                decode_one(framed(frame_type, payload))
        nested = b"\x08" + struct.pack(">I", 1) + payload
        with pytest.raises(ProtocolError, match="unknown value tag 0x0c"):
            decode_one(answers_frame(nested))
        with pytest.raises(ProtocolError, match="unknown value tag 0x0c"):
            decode_value(payload)

    def test_no_flipped_byte_or_truncation_escapes_as_another_error(self):
        answers = [(4, COUNT_Q, 10), (8, WIDE_Q, 20), (12, COUNT_Q, -1)]
        frame = encode_frame(FrameType.ANSWERS, encode_answer_columns(answers))
        for index in range(len(frame)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(frame)
                damaged[index] ^= mask
                try:
                    decoded = try_decode_frame_traced(bytes(damaged))
                    if decoded is not None:
                        decode_answers(decoded[0].payload)
                except ProtocolError:
                    continue
                # What still decodes did not touch the columns.
                assert index < HEADER.size or decoded is None, index
        payload = frame[HEADER.size :]
        for size in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode_one(answers_frame(payload[:size]))
