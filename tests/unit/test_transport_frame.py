"""Unit tests for the columnar frame codec.

The codec is the contract between the supervisor (encoder) and the
shard worker (decoder): these tests pin the capability check, the
dictionary key encoding, CRC protection, and the exact round-trip
semantics the service-level equivalence tests rely on.

The column codec underneath (:mod:`repro.service.transport.columns`)
is shared with the wire's record columns, so what it promises — a key
table that trusts none of its bytes, a dictionary that never retypes a
key — is pinned here once, through both envelopes.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import pytest

from repro.errors import ProtocolError, TornFrameError
from repro.net.protocol import (
    FrameType,
    encode_frame,
    try_decode_frame_traced,
)
from repro.service.transport.columns import (
    decode_key_table,
    encode_key_table,
    encode_keys,
)
from repro.service.transport.frame import (
    FrameKind,
    HEADER_BYTES,
    MAGIC,
    decode_frame,
    encode_batch_frame,
    encode_control_frame,
    encode_pickled_frame,
    encode_values,
)


from tests.unit.test_net_protocol import tagged_frame


def _decode(frame_bytes):
    return decode_frame(memoryview(frame_bytes))


# -- capability check ----------------------------------------------------


def test_encode_values_all_ints():
    body, is_float = encode_values([1, -2, 3_000_000_000])
    assert not is_float
    assert len(body) == 3 * 8


def test_encode_values_all_floats():
    body, is_float = encode_values([1.5, -0.25, float("inf")])
    assert is_float
    assert len(body) == 3 * 8


def test_encode_values_empty_is_columnar():
    assert encode_values([]) == (b"", False)


def test_encode_values_rejects_mixed_types():
    assert encode_values([1, 2.0]) is None


def test_encode_values_rejects_bools():
    # bool is an int subclass but must not round-trip as int: the
    # bool_all/bool_any operators would change answer type.
    assert encode_values([True, False]) is None
    assert encode_values([1, True]) is None


def test_encode_values_rejects_out_of_range_ints():
    assert encode_values([1 << 70]) is None
    assert encode_values([-(1 << 70)]) is None


def test_encode_values_rejects_objects():
    assert encode_values(["a", "b"]) is None
    assert encode_values([None]) is None


# -- columnar round-trip -------------------------------------------------


def test_columnar_round_trip_ints():
    positions = [10, 11, 12, 13]
    keys = ["a", "b", "a", "c"]
    values = [5, -7, 1 << 60, 0]
    frame = encode_batch_frame(3, 42, 13, positions, keys, values, None)
    decoded = _decode(frame)
    assert decoded.kind is FrameKind.COLUMNAR
    assert decoded.shard == 3
    assert decoded.seq == 42
    assert decoded.watermark == 13
    assert decoded.count == 4
    assert list(decoded.positions) == positions
    assert list(decoded.values) == values
    assert all(type(v) is int for v in decoded.values)
    assert decoded.keys == keys
    assert decoded.traces is None
    decoded.release()


def test_columnar_round_trip_floats():
    values = [1.5, -0.0, float("inf"), 2.0**-1074]
    frame = encode_batch_frame(0, 1, None, [0, 1, 2, 3], [1, 1, 2, 2], values, None)
    decoded = _decode(frame)
    assert decoded.watermark is None
    out = list(decoded.values)
    assert out == values
    assert all(type(v) is float for v in out)
    # -0.0 sign must survive (== alone would not catch it).
    assert str(out[1]) == "-0.0"
    decoded.release()


def test_columnar_round_trip_nan():
    frame = encode_batch_frame(0, 1, 0, [0], ["k"], [float("nan")], None)
    decoded = _decode(frame)
    value = decoded.values[0]
    assert value != value  # NaN
    assert decoded.watermark == 0
    decoded.release()


def test_columnar_empty_batch_carries_watermark():
    frame = encode_batch_frame(1, 9, 100, [], [], [], None)
    decoded = _decode(frame)
    assert decoded.count == 0
    assert decoded.keys == []
    assert list(decoded.positions) == []
    assert decoded.watermark == 100
    decoded.release()


def test_columnar_traces_round_trip():
    traces = [123, None, 456]
    frame = encode_batch_frame(0, 1, 2, [0, 1, 2], ["k"] * 3, [1, 2, 3], traces)
    decoded = _decode(frame)
    assert decoded.traces == traces
    decoded.release()


def test_columnar_all_none_traces_omit_column():
    with_traces = encode_batch_frame(0, 1, 2, [0], ["k"], [1], [None])
    without = encode_batch_frame(0, 1, 2, [0], ["k"], [1], None)
    assert with_traces == without
    decoded = _decode(with_traces)
    assert decoded.traces is None
    decoded.release()


def test_columnar_returns_none_on_unsupported_values():
    assert encode_batch_frame(0, 1, 2, [0, 1], ["a", "b"], [1, "x"], None) is None


@pytest.mark.parametrize(
    "keys",
    [
        ["alpha", "beta", "alpha"],
        [0, -(1 << 63), (1 << 63) - 1],
        [1.5, -0.25, 1.5],
        [b"\x00raw", b"", b"\x00raw"],
        [True, False, True],
        [None, None, None],
        ["mixed", 7, None],
    ],
)
def test_key_table_round_trips_common_types(keys):
    frame = encode_batch_frame(0, 1, None, [0, 1, 2], keys, [1, 2, 3], None)
    decoded = _decode(frame)
    assert decoded.keys == keys
    assert [type(k) for k in decoded.keys] == [type(k) for k in keys]
    decoded.release()


def test_key_table_pickles_exotic_keys():
    keys = [("tuple", 1), frozenset({2}), ("tuple", 1)]
    frame = encode_batch_frame(0, 1, None, [0, 1, 2], keys, [1, 2, 3], None)
    decoded = _decode(frame)
    assert decoded.keys == keys
    decoded.release()


def test_key_table_huge_int_keys_pickle():
    # Keys outside i64 take the pickled-table path, not an overflow.
    keys = [1 << 100, "x", 1 << 100]
    frame = encode_batch_frame(0, 1, None, [0, 1, 2], keys, [1, 2, 3], None)
    decoded = _decode(frame)
    assert decoded.keys == keys
    decoded.release()


# -- ranged and keyless frames (global and time mode) --------------------


@pytest.mark.parametrize("stride", [1, 2])
def test_ranged_positions_round_trip(stride):
    positions = range(41, 41 + 6 * stride, stride)
    frame = encode_batch_frame(2, 5, 9, positions, ["a"] * 6, [*range(6)], None)
    decoded = _decode(frame)
    assert type(decoded.positions) is range and decoded.positions == positions
    assert (decoded.keys, list(decoded.values)) == (["a"] * 6, [*range(6)])
    decoded.release()


def test_keyless_frames_decode_with_keys_none():
    positions = range(1, 257)
    frame = encode_batch_frame(0, 1, 3, positions, None, [*range(256)], None)
    assert len(frame) == HEADER_BYTES + 16 + 8 * 256
    decoded = _decode(frame)
    assert (decoded.keys, decoded.positions) == (None, positions)
    assert list(decoded.values) == [*range(256)]
    decoded.release()
    frame = encode_batch_frame(
        0, 1, 3, range(5, 9, 2), None, [1.5, 2.5], [4, None], [0.5, 0.75]
    )
    decoded = _decode(frame)
    assert (decoded.keys, decoded.traces) == (None, [4, None])
    assert list(decoded.timestamps) == [0.5, 0.75]
    decoded.release()


def test_keyed_frames_with_a_position_column_decode_as_before():
    keys, values = ["a", "b", "a"], [1, 2, 3]
    frame = encode_batch_frame(0, 1, 2, [3, 4, 9], keys, values, None)
    assert frame[5] == 0  # no flag: neither ranged nor keyless
    table = encode_key_table(["a", "b"])
    assert len(frame) == HEADER_BYTES + 3 * (8 + 8 + 4) + len(table)
    decoded = _decode(frame)
    assert (list(decoded.positions), decoded.keys) == ([3, 4, 9], keys)
    decoded.release()


#: The flag byte of a ranged keyless frame, and of a ranged keyed one.
RANGED_KEYLESS = encode_batch_frame(0, 1, 0, range(1, 2), None, [7], None)[5]
RANGED = encode_batch_frame(0, 1, 0, range(1, 2), ["k"], [7], None)[5]


def sealed_columnar(flags: int, count: int, body: bytes, table: int = 0):
    """A CRC-valid columnar ring frame around a hand-built body."""
    head = struct.pack(
        "<4sBBHQQII", MAGIC, int(FrameKind.COLUMNAR), flags, 0, 1, 0,
        count, table,
    )
    crc = zlib.crc32(body, zlib.crc32(head))
    return head + struct.pack("<I", crc) + body


TORN_RANGED_FRAMES = {
    "zero-stride": (RANGED_KEYLESS, 3, struct.pack("=qq3q", 1, 0, 1, 2, 3)),
    "negative-stride": (RANGED_KEYLESS, 1, struct.pack("=qqq", 9, -1, 1)),
    "keyless-body-short": (RANGED_KEYLESS, 3, struct.pack("=qq2q", 1, 1, 1, 2)),
    "keyless-body-long": (RANGED_KEYLESS, 1, struct.pack("=qq2q", 1, 1, 1, 2)),
    "keyless-with-key-table": (
        RANGED_KEYLESS, 1, struct.pack("=qqq", 1, 1, 7) + b"\x00" * 4, 4,
    ),
    "ranged-keyed-no-index": (RANGED, 1, struct.pack("=qqq", 1, 1, 7)),
}


@pytest.mark.parametrize("case", TORN_RANGED_FRAMES)
def test_ranged_and_keyless_frames_refuse_a_torn_layout(case):
    with pytest.raises(TornFrameError):
        _decode(sealed_columnar(*TORN_RANGED_FRAMES[case]))


# -- the shared key column, through both envelopes -----------------------


def ring_frame_with_key_table(table: bytes, flags: int = 0) -> bytes:
    """A CRC-valid one-record columnar ring frame around ``table``."""
    body = struct.pack("<qqI", 1, 7, 0) + table
    head = struct.pack(
        "<4sBBHQQII", MAGIC, int(FrameKind.COLUMNAR), flags, 0, 1, 0, 1,
        len(table),
    )
    crc = zlib.crc32(body, zlib.crc32(head))
    return head + struct.pack("<I", crc) + body


def wire_frame_with_key_table(table: bytes, flags: int = 0) -> bytes:
    """A CRC-valid one-record SUBMIT_BATCH record-columns frame."""
    sealed = struct.pack("<IIB", 1, len(table), flags) + struct.pack(
        "<qI", 7, 0
    ) + table
    payload = b"\x0b" + struct.pack("<I", zlib.crc32(sealed)) + sealed
    return b"SD\x01\x02" + struct.pack(">I", len(payload)) + payload


def test_hand_built_envelopes_decode_when_the_table_is_sound():
    table = encode_key_table(["k"])
    decoded = _decode(ring_frame_with_key_table(table))
    assert (decoded.keys, list(decoded.values)) == (["k"], [7])
    decoded.release()
    frame, _ = try_decode_frame_traced(wire_frame_with_key_table(table))
    assert frame.payload == [("k", 7)]


DAMAGED_KEY_TABLES = {
    "no-count-field": b"\x01",
    "entry-missing": struct.pack("<I", 1),
    "int-entry-truncated": struct.pack("<I", 1) + b"\x01\x07\x00\x00",
    "str-length-truncated": struct.pack("<I", 1) + b"\x03\x02\x00",
    "str-runs-past-the-table": struct.pack("<I", 1) + b"\x03\x09\x00\x00\x00ab",
    "bad-utf-8": struct.pack("<I", 1) + b"\x03\x02\x00\x00\x00\xff\xfe",
    "trailing-bytes": struct.pack("<I", 1) + b"\x00trailing",
    "unknown-tag": struct.pack("<I", 1) + b"\x09",
    "count-beyond-the-table": struct.pack("<I", 0x7FFFFFFF) + b"\x00",
}


@pytest.mark.parametrize("case", DAMAGED_KEY_TABLES)
def test_damaged_key_table_is_one_error_type_per_envelope(case):
    table = DAMAGED_KEY_TABLES[case]
    with pytest.raises(TornFrameError):
        _decode(ring_frame_with_key_table(table))
    with pytest.raises(ProtocolError):
        try_decode_frame_traced(wire_frame_with_key_table(table))


def test_key_table_entry_count_is_bounded_before_the_loop():
    # 2**31 declared entries in a five-byte table: refused by the
    # bound, not by walking off the end after looping that far.
    table = DAMAGED_KEY_TABLES["count-beyond-the-table"]
    with pytest.raises(ProtocolError, match="cannot hold"):
        decode_key_table(memoryview(table), ProtocolError)


RETYPING_ROWS = [(1, 1), (True, 2), (1.0, 3), (-0.0, 4), (0.0, 5)]


def test_dictionary_encoding_keeps_equal_keys_apart_on_the_ring():
    # 1 == True == 1.0 and 0.0 == -0.0, but they are five keys: the
    # pickled frame keeps each one's type, and so must the columns.
    keys = [key for key, _ in RETYPING_ROWS]
    frame = encode_batch_frame(0, 1, None, range(5), keys, range(5), None)
    decoded = _decode(frame)
    assert repr(decoded.keys) == repr(keys)
    assert repr(decoded.keys) == repr(pickle.loads(pickle.dumps(keys)))
    decoded.release()


def test_dictionary_encoding_keeps_equal_keys_apart_on_the_wire():
    columnar = encode_frame(FrameType.SUBMIT_BATCH, RETYPING_ROWS)
    assert columnar[8] == 0x0B
    tagged = tagged_frame(FrameType.SUBMIT_BATCH, RETYPING_ROWS)
    (as_columns, _), (as_tagged, _) = map(
        try_decode_frame_traced, (columnar, tagged)
    )
    assert repr(list(as_columns.payload)) == repr(as_tagged.payload)
    assert repr(as_tagged.payload) == repr(RETYPING_ROWS)


@pytest.mark.parametrize(
    "keys",
    [
        [1, True, 1.0, 1],
        [0.0, -0.0],
        [False, 0, "0", b"0", None],
        [2.5, 2.5, -2.5],
        [7, 7, 8],
    ],
)
def test_encode_keys_decodes_back_type_exact(keys):
    distinct, codes = encode_keys(keys)
    indices = memoryview(codes).cast("I")
    assert repr([distinct[i] for i in indices]) == repr(keys)
    assert len(set(map(repr, distinct))) == len(distinct)


def test_encode_keys_refuses_what_it_cannot_keep_exact():
    # A number beside a key whose repr proves nothing, and a key that
    # does not hash: the envelope falls back (pickled frame / tagged).
    assert encode_keys([1, ("tuple", 1)]) is None
    assert encode_keys([["unhashable"], "k"]) is None
    assert (
        encode_batch_frame(0, 1, None, [0, 1], [1, ("t", 1)], [1, 2], None)
        is None
    )


# -- pickled and control frames ------------------------------------------


def test_pickled_frame_round_trip():
    payload = {"arbitrary": ["structure", 1, None]}
    frame = encode_pickled_frame(FrameKind.PICKLED, 2, 7, payload)
    decoded = _decode(frame)
    assert decoded.kind is FrameKind.PICKLED
    assert decoded.shard == 2
    assert decoded.seq == 7
    assert decoded.payload == payload


def test_output_frame_round_trip():
    frame = encode_pickled_frame(FrameKind.OUTPUT, 0, 3, ("answers", [1, 2]))
    decoded = _decode(frame)
    assert decoded.kind is FrameKind.OUTPUT
    assert decoded.payload == ("answers", [1, 2])


@pytest.mark.parametrize("kind", [FrameKind.STOP, FrameKind.SPILL])
def test_control_frames_are_bodyless(kind):
    frame = encode_control_frame(kind, 5)
    assert len(frame) == HEADER_BYTES
    decoded = _decode(frame)
    assert decoded.kind is kind
    assert decoded.shard == 5
    assert decoded.payload is None


# -- corruption detection ------------------------------------------------


def test_decode_rejects_short_frame():
    with pytest.raises(TornFrameError):
        _decode(b"SDF1\x01")


def test_decode_rejects_bad_magic():
    frame = bytearray(encode_control_frame(FrameKind.STOP, 0))
    frame[:4] = b"XXXX"
    with pytest.raises(TornFrameError):
        _decode(bytes(frame))


def test_decode_rejects_unknown_kind():
    frame = bytearray(encode_control_frame(FrameKind.STOP, 0))
    frame[4] = 99
    # CRC covers the kind byte, so this trips the CRC check first;
    # either way the torn-write signature must surface.
    with pytest.raises(TornFrameError):
        _decode(bytes(frame))


@pytest.mark.parametrize("index", [6, 20, 40, -1])
def test_single_bit_flip_anywhere_is_detected(index):
    frame = bytearray(
        encode_batch_frame(1, 2, 3, [0, 1], ["a", "b"], [10, 20], [7, None])
    )
    frame[index] ^= 0x40
    with pytest.raises(TornFrameError):
        _decode(bytes(frame))


def test_truncated_body_is_detected():
    frame = encode_batch_frame(0, 1, 2, [0, 1], ["a", "b"], [1, 2], None)
    with pytest.raises(TornFrameError):
        _decode(frame[:-5])


def test_magic_constant_is_stable():
    # The wire constant is load-bearing across versions; pin it.
    assert MAGIC == b"SDF1"
    frame = encode_control_frame(FrameKind.STOP, 0)
    assert frame[:4] == MAGIC
    assert struct.unpack_from("<B", frame, 4)[0] == int(FrameKind.STOP)
