"""Length-prefixed binary wire protocol for the network serving layer.

One frame per request or reply.  Version 1 framing::

    0        2        3        4            8
    +--------+--------+--------+------------+----------------+
    | magic  | version| type   | length (BE)| payload ...    |
    | 2 B    | 1 B    | 1 B    | 4 B        | length bytes   |
    +--------+--------+--------+------------+----------------+

Version 2 adds a fixed trace-id field between header and payload::

    0        2        3        4            8                16
    +--------+--------+--------+------------+----------------+---------+
    | magic  | version| type   | length (BE)| trace id (BE)  | payload |
    | 2 B    | 1 B    | 1 B    | 4 B        | 8 B            | len B   |
    +--------+--------+--------+------------+----------------+---------+

Version 3 adds a fixed event-time field (big-endian f64 seconds) after
the trace id, carrying a record's event timestamp out-of-band so the
payload codec never has to disambiguate it from record values::

    0        2        3        4            8          16         24
    +--------+--------+--------+------------+----------+----------+---------+
    | magic  | version| type   | length (BE)| trace id | evt time | payload |
    | 2 B    | 1 B    | 1 B    | 4 B        | 8 B      | f64 (BE) | len B   |
    +--------+--------+--------+------------+----------+----------+---------+

``magic`` is ``b"SD"`` (SlickDeque), ``version`` is one of
:data:`SUPPORTED_VERSIONS`, ``type`` is one of :class:`FrameType`, and
the payload is one value in the tagged binary encoding of
:func:`encode_value` (None, bools, ints of any size, floats, strings,
bytes, lists, tuples, and string-or-scalar-keyed dicts).  One payload
has a second encoding: the rows of ``SUBMIT_BATCH`` /
``SUBMIT_EVENT_BATCH`` travel as *record columns* (value tag ``0x0B``:
a CRC'd little-endian value column, key-code column, optional
timestamp column and key table — see "record columns" below) whenever
they are eligible, and as the tagged list of row tuples otherwise;
:func:`encode_frame` chooses, the decoder and the parse half take
either, and an old client's tagged batches keep working.  ``ANSWERS``
has the same pair: eligible answers travel as *answer columns* (tag
``0x0C``: position, query-slot and value columns and a spec table —
see "answer columns" below), but only to a client that opened its
connection with ``HELLO``; the server chooses, and a connection
without ``HELLO`` gets the tagged rows, byte for byte.  The v2
trace id correlates a request with the work it causes downstream (see
:mod:`repro.telemetry.trace`); 0 means "no trace" and decodes as
``None``.  :func:`encode_frame` emits the *minimal* version for what
it is asked to carry — v1 when there is no trace id, v2 when there is
— so untraced traffic is byte-identical to protocol version 1 and old
peers keep interoperating; the decoder accepts both versions either
way.  Requests and replies share the framing; a request's reply is the
next reply frame on the connection, so clients may pipeline freely.

Anything the codec cannot interpret — bad magic, unsupported version,
unknown frame type or value tag, declared lengths that exceed
:data:`MAX_PAYLOAD_BYTES` or run past the payload — raises
:class:`~repro.errors.ProtocolError`.  Incomplete input is *not* an
error: the streaming :class:`FrameDecoder` simply waits for more
bytes, which is what lets the server read frames off a TCP stream
chunk by chunk.
"""

from __future__ import annotations

import enum
import math
import struct
import sys
import zlib
from array import array
from itertools import filterfalse, repeat
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ProtocolError
from repro.service.transport.columns import (
    FLAG_FLOAT,
    FLAG_TIMES,
    column_bytes,
    decode_key_table,
    encode_key_table,
    encode_keys,
    encode_values,
)
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery

#: Frame preamble identifying this protocol on the wire.
MAGIC = b"SD"

#: Current protocol version (v2 added the optional trace-id header
#: field, v3 the event-time field).  :func:`encode_frame` still emits
#: the *minimal* version for what a frame carries — v1 bytes for plain
#: frames, v2 for traced ones — so the bump is invisible to peers that
#: never send event time.
PROTOCOL_VERSION = 2

#: Version carrying the event-time header field.
EVENT_TIME_PROTOCOL_VERSION = 3

#: The newest version *before* the trace-id field existed.
LEGACY_PROTOCOL_VERSION = 1

#: Versions this side decodes.
SUPPORTED_VERSIONS = frozenset({1, 2, 3})

#: Frame header: magic(2) + version(1) + type(1) + payload length(4).
HEADER = struct.Struct(">2sBBI")

#: v2 trace-id field, following the base header (0 = no trace).
_TRACE_FIELD = struct.Struct(">Q")

#: v3 event-time field (f64 seconds), following the trace id.
_EVENT_FIELD = struct.Struct(">d")

#: Largest trace id the 8-byte wire field can carry.
MAX_TRACE_ID = 2**64 - 1

#: Hard upper bound on a single frame's payload (16 MiB).  Guards the
#: server against a hostile or corrupt length field committing it to
#: an unbounded read.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024


class FrameType(enum.IntEnum):
    """Request (< 0x80) and reply (>= 0x80) frame types."""

    #: One keyed record: payload ``(key, value)``.
    SUBMIT = 0x01
    #: Many keyed records: payload ``[(key, value), ...]`` — as record
    #: columns when the rows are eligible, tagged otherwise.
    SUBMIT_BATCH = 0x02
    #: Collect answers released since the last poll: payload ``None``.
    POLL = 0x03
    #: Server + service instrumentation snapshot: payload ``None``.
    STATS = 0x04
    #: Flush the service and return every remaining answer: ``None``.
    DRAIN = 0x05
    #: End this connection (the server stays up): payload ``None``.
    CLOSE = 0x06
    #: One key's value column: payload ``(key, kind, body)`` where
    #: ``kind`` is ``"q"`` (body = packed little-endian int64s),
    #: ``"d"`` (packed float64s), or ``"o"`` (body = a list of tagged
    #: values, the fallback for non-numeric columns).  The server
    #: ingests it as the rows ``(key, value)`` of ``SUBMIT_BATCH``.
    SUBMIT_COLUMN = 0x07
    #: One event-timestamped record: payload ``(key, value)``, with
    #: the event timestamp in the v3 header field.
    SUBMIT_EVENT = 0x08
    #: Many event-timestamped records: payload
    #: ``[(key, timestamp, value), ...]`` (timestamps in-payload; the
    #: v3 header field is unused and the frame may travel as v1/v2),
    #: as record columns when eligible like ``SUBMIT_BATCH``.
    SUBMIT_EVENT_BATCH = 0x09
    #: Connection preface: payload ``None``, legal only as the first
    #: frame, never answered.  The client reads answer columns, so
    #: this connection's eligible ``ANSWERS`` travel as them.
    HELLO = 0x0A

    #: Success without answers: payload ``{"accepted": n}``-style dict.
    OK = 0x81
    #: Answers released: payload ``[(position, (range, slide, name),
    #: value)]`` — as answer columns when eligible on a HELLO connection.
    ANSWERS = 0x82
    #: Stats snapshot: payload dict (see ``docs/serving.md``).
    STATS_REPLY = 0x83
    #: Admission control shed the request; retry after backoff.
    RETRY = 0x84
    #: The request failed; payload ``{"error": ..., "message": ...}``.
    ERROR = 0x85


#: Frame types a client may send, and a server may send: the enum's
#: split at 0x80, so a new member needs no second entry here.
REQUEST_TYPES = frozenset(t for t in FrameType if t < 0x80)
REPLY_TYPES = frozenset(FrameType) - REQUEST_TYPES

# -- value codec ----------------------------------------------------
#
# One-byte tag, then a fixed- or length-prefixed body.  Collections
# nest arbitrarily.  Ints outside signed-64 fall back to a
# length-prefixed two's-complement encoding so Python's bigints round
# trip exactly.

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT64 = 0x03
_TAG_BIGINT = 0x04
_TAG_FLOAT = 0x05
_TAG_STR = 0x06
_TAG_BYTES = 0x07
_TAG_LIST = 0x08
_TAG_TUPLE = 0x09
_TAG_DICT = 0x0A
#: Record columns: legal only as the whole payload of SUBMIT_BATCH /
#: SUBMIT_EVENT_BATCH (see "record columns" below), so the value codec
#: itself refuses it as an unknown tag anywhere else.
_TAG_RECORD_COLUMNS = 0x0B
#: Answer columns: legal only as the whole payload of ANSWERS (see
#: "answer columns" below), an unknown tag anywhere else.
_TAG_ANSWER_COLUMNS = 0x0C

_INT64 = struct.Struct(">q")
_FLOAT64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def encode_value(value: Any) -> bytes:
    """Encode one supported Python value to its tagged binary form.

    Supported: ``None``, ``bool``, ``int`` (any magnitude), ``float``,
    ``str``, ``bytes``, ``list``, ``tuple``, and ``dict`` (keys and
    values each themselves supported).  Anything else raises
    :class:`~repro.errors.ProtocolError` — the wire format is a closed
    set on purpose, so a server never unpickles arbitrary objects.
    """
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value: Any) -> None:
    # bool must be tested before int (bool is an int subclass).
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, bool):  # pragma: no cover - numpy bools etc.
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_TAG_INT64)
            out += _INT64.pack(value)
        else:
            body = value.to_bytes(
                (value.bit_length() + 8) // 8, "big", signed=True
            )
            out.append(_TAG_BIGINT)
            out += _U32.pack(len(body))
            out += body
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _FLOAT64.pack(value)
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _U32.pack(len(body))
        out += body
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST if isinstance(value, list) else _TAG_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    else:
        raise ProtocolError(
            f"cannot encode {type(value).__name__!s} on the wire; "
            "supported types are None/bool/int/float/str/bytes/"
            "list/tuple/dict"
        )


def decode_value(payload: bytes) -> Any:
    """Decode one tagged value, requiring the payload be fully consumed.

    Trailing bytes after the value are a framing bug (the length field
    promised exactly one value) and raise
    :class:`~repro.errors.ProtocolError`, as do truncated bodies and
    unknown tags.
    """
    value, offset = _decode_at(payload, 0)
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes after payload value"
        )
    return value


def _need(payload: bytes, offset: int, count: int) -> None:
    if offset + count > len(payload):
        raise ProtocolError(
            f"truncated payload: needed {count} bytes at offset "
            f"{offset}, have {len(payload) - offset}"
        )


def _decode_at(payload: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(payload):  # checked inline: once per value decoded
        _need(payload, offset, 1)
    tag = payload[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT64:
        _need(payload, offset, 8)
        return _INT64.unpack_from(payload, offset)[0], offset + 8
    if tag == _TAG_BIGINT:
        _need(payload, offset, 4)
        size = _U32.unpack_from(payload, offset)[0]
        offset += 4
        _need(payload, offset, size)
        body = payload[offset : offset + size]
        return int.from_bytes(body, "big", signed=True), offset + size
    if tag == _TAG_FLOAT:
        _need(payload, offset, 8)
        return _FLOAT64.unpack_from(payload, offset)[0], offset + 8
    if tag in (_TAG_STR, _TAG_BYTES):
        _need(payload, offset, 4)
        size = _U32.unpack_from(payload, offset)[0]
        offset += 4
        _need(payload, offset, size)
        body = payload[offset : offset + size]
        offset += size
        if tag == _TAG_BYTES:
            return bytes(body), offset
        try:
            return body.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"invalid UTF-8 in string body: {exc}"
            ) from exc
    if tag in (_TAG_LIST, _TAG_TUPLE):
        _need(payload, offset, 4)
        count = _U32.unpack_from(payload, offset)[0]
        offset += 4
        items: List[Any] = []
        for _ in range(count):
            item, offset = _decode_at(payload, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag == _TAG_DICT:
        _need(payload, offset, 4)
        count = _U32.unpack_from(payload, offset)[0]
        offset += 4
        mapping = {}
        for _ in range(count):
            key, offset = _decode_at(payload, offset)
            item, offset = _decode_at(payload, offset)
            try:
                mapping[key] = item
            except TypeError as exc:
                # Corruption can rewrite a key's tag into a container
                # tag; an unhashable key is a framing error, not a bug.
                raise ProtocolError(f"unhashable dict key: {exc}") from exc
        return mapping, offset
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


# -- column packing -------------------------------------------------
#
# Packed columns are little-endian on the wire.  Both directions go
# through the two functions below, whichever frame carries the column:
# ``SUBMIT_COLUMN`` (one key, one value column) and the record columns
# of ``SUBMIT_BATCH`` / ``SUBMIT_EVENT_BATCH``.


def pack_column(values: Sequence[Any]) -> Optional[Tuple[str, bytes]]:
    """Pack a homogeneous numeric column for the wire.

    Returns ``(kind, body)`` — ``("q", <packed int64s>)`` or
    ``("d", <packed float64s>)`` — or ``None`` when the column is not
    eligible (mixed types, bools, ints outside int64, or a big-endian
    host, where native packing would not match the little-endian wire
    layout).  Eligibility is the shm transport's columnar capability
    check (:func:`repro.service.transport.columns.encode_values`), so
    a column that packs here also rides the shard rings columnar end
    to end.
    """
    if sys.byteorder != "little":  # pragma: no cover - LE hosts only
        return None
    encoded = encode_values(values)
    if encoded is None:
        return None
    body, is_float = encoded
    return ("d" if is_float else "q", body)


def _unpack_column(body: Any, kind: str) -> Any:
    """Zero-copy typed view over a packed column of ``kind`` (``"q"``,
    ``"d"``, or ``"I"`` for key codes): the inverse of
    :func:`pack_column`, with no per-record decode loop."""
    if not isinstance(body, (bytes, bytearray, memoryview)):
        raise ProtocolError(
            f"packed column body must be bytes, got {type(body).__name__}"
        )
    width = 4 if kind == "I" else 8
    if len(body) % width:
        raise ProtocolError(
            f"packed column of {len(body)} bytes is not a "
            f"multiple of {width}"
        )
    if sys.byteorder != "little":  # pragma: no cover - LE hosts
        column = array(kind)
        column.frombytes(body)
        column.byteswap()
        return column
    return memoryview(body).cast(kind)


# -- record columns -------------------------------------------------
#
# The columnar encoding of SUBMIT_BATCH / SUBMIT_EVENT_BATCH: the
# payload is not a tagged list of row tuples but one value tagged
# ``_TAG_RECORD_COLUMNS``, legal only as the *whole* payload of those
# two frame types (nested, or on any other frame, it is an unknown
# tag).  Everything after the tag is little-endian::
#
#     crc32 u32 | records u32 | key-table bytes u32 | flags u8
#     values      records * 8   i64, or f64 with FLAG_FLOAT
#     key codes   records * 4   u32 indices into the key table
#     timestamps  records * 8   f64, SUBMIT_EVENT_BATCH only (FLAG_TIMES)
#     key table   the batch's distinct keys, first-seen order
#
# The CRC covers every byte after itself.  TCP checksums too, but a
# typed view over damaged bytes yields plausible wrong numbers where
# the tagged codec would have hit a bad tag.  The columns and the key
# table are :mod:`repro.service.transport.columns`' — the shm frame's
# codec in a smaller envelope: no position column (the router assigns
# positions) and never a pickled key table.

_COLUMNS_SEAL = struct.Struct("<BI")  # tag, crc32
_COLUMNS_FIELDS = struct.Struct("<IIB")  # rows, table bytes, flags
_COLUMNS_HEADER_BYTES = _COLUMNS_SEAL.size + _COLUMNS_FIELDS.size

#: Frame types whose payload may travel as record columns -> row arity.
_ROW_ARITY = {FrameType.SUBMIT_BATCH: 2, FrameType.SUBMIT_EVENT_BATCH: 3}


def _seal(tag: int, count: int, flags: int, columns: Sequence[Any]) -> bytes:
    """A column envelope: tag, CRC, header fields, then ``columns``,
    whose last one is the table (its length is a header field)."""
    fields = _COLUMNS_FIELDS.pack(count, len(columns[-1]), flags)
    crc = zlib.crc32(fields)
    for column in columns:
        crc = zlib.crc32(column, crc)
    return b"".join((_COLUMNS_SEAL.pack(tag, crc), fields, *columns))


def _open_seal(payload: bytes, noun: str) -> Tuple[int, int, int, int]:
    """``(crc, rows, table bytes, flags)`` of a column envelope,
    refusing a payload shorter than its header."""
    if len(payload) < _COLUMNS_HEADER_BYTES:
        raise ProtocolError(
            f"{noun} payload of {len(payload)} bytes is shorter than "
            f"its {_COLUMNS_HEADER_BYTES}-byte header"
        )
    _, crc = _COLUMNS_SEAL.unpack_from(payload)
    return (crc, *_COLUMNS_FIELDS.unpack_from(payload, _COLUMNS_SEAL.size))


def _check_seal(
    payload: bytes, crc: int, expected: int, noun: str
) -> memoryview:
    """The envelope's body once its length is ``expected`` — checked by
    arithmetic, before anything is sized from the row count — and its
    CRC matches."""
    view = memoryview(payload)
    body = view[_COLUMNS_HEADER_BYTES:]
    if len(body) != expected:
        raise ProtocolError(
            f"{noun} body is {len(body)} bytes, expected {expected} "
            "for its row count and table length"
        )
    if zlib.crc32(view[_COLUMNS_SEAL.size :]) != crc:
        raise ProtocolError(f"{noun} CRC mismatch")
    return body


class RecordColumns:
    """The records of one columnar batch payload, as columns.

    What the decoder hands the parse half for a columnar
    ``SUBMIT_BATCH`` / ``SUBMIT_EVENT_BATCH``: typed views over the
    frame's one ``bytes`` copy, no row tuples built.  It is sized,
    *iterates as the rows the tagged body would have decoded to* —
    ``(key, value)`` pairs, or ``(key, timestamp, value)`` triples when
    it carries :attr:`timestamps` — and compares equal to that row
    list, so every consumer of records takes either body.

    Attributes:
        codes: ``memoryview('I')`` — per record, an index into
            :attr:`key_table`.
        key_table: The batch's distinct keys (scalars, so every one
            of them can be routed).
        values: ``memoryview('q')`` or ``memoryview('d')``.
        timestamps: ``memoryview('d')`` of event times, or ``None``.
    """

    __slots__ = ("codes", "key_table", "values", "timestamps", "_keys")

    def __init__(
        self,
        codes: Sequence[int],
        key_table: List[Any],
        values: Sequence[Any],
        timestamps: Optional[Sequence[float]] = None,
    ):
        self.codes = codes
        self.key_table = key_table
        self.values = values
        self.timestamps = timestamps
        self._keys: Optional[List[Any]] = None

    def key_column(self) -> List[Any]:
        """The key of every record (``key_table[code]``), resolved in
        one C-level pass and kept.  A code outside the table raises
        :class:`~repro.errors.ProtocolError`."""
        if self._keys is None:
            try:
                # u32 codes are never negative, so IndexError is
                # exactly the out-of-range check.
                self._keys = list(map(self.key_table.__getitem__, self.codes))
            except IndexError:
                raise ProtocolError(
                    f"record columns hold a key code outside their "
                    f"{len(self.key_table)}-entry key table"
                ) from None
        return self._keys

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        if self.timestamps is None:
            return zip(self.key_column(), self.values)
        return zip(self.key_column(), self.timestamps, self.values)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (list, RecordColumns)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RecordColumns({list(self)!r})"


def _encode_record_columns(rows: Any, arity: int) -> Optional[bytes]:
    """``rows`` as a record-columns payload, or ``None`` when they must
    travel tagged.

    Eligibility is a property of the rows and nothing else: a list of
    exactly ``arity``-tuples, values all exactly ``int`` within i64 or
    all exactly ``float``, keys the compact key table carries, and
    timestamps numbers.  Every check is a C-level pass over a column.
    """
    if (
        type(rows) is not list
        or set(map(type, rows)) != {tuple}
        or set(map(len, rows)) != {arity}
    ):
        return None
    # One C-level transposition: (keys, values) or (keys, stamps, values).
    keys, *stamps, values = zip(*rows)
    packed = pack_column(values)
    if packed is None:
        return None
    key_column = encode_keys(keys)
    if key_column is None:
        return None
    distinct, codes = key_column
    table = encode_key_table(distinct)
    if table is None:
        return None
    kind, values = packed
    columns = [values, codes]
    flags = FLAG_FLOAT if kind == "d" else 0
    if stamps:
        if not set(map(type, stamps[0])) <= {int, float}:
            return None
        try:
            columns.append(column_bytes(stamps[0], "d"))
        except OverflowError:
            return None
        flags |= FLAG_TIMES
    columns.append(table)
    return _seal(_TAG_RECORD_COLUMNS, len(rows), flags, columns)


def _decode_record_columns(payload: bytes, arity: int) -> RecordColumns:
    """Decode a record-columns payload into views over ``payload``.

    Structural damage is a framing error, raised here before anything
    is sized from the record count: a body whose length is not what
    the count and table length imply, a CRC mismatch, flag bits this
    side does not know (a pickled key table is never decoded from the
    network), a timestamp column on the wrong frame type, a damaged
    key table.  What the columns *say* — key codes, timestamps — is
    the parse half's to refuse.
    """
    crc, count, table_bytes, flags = _open_seal(payload, "record-columns")
    unknown = flags & ~(FLAG_FLOAT | FLAG_TIMES)
    if unknown:
        raise ProtocolError(
            f"record columns carry unsupported flag bits {unknown:#04x}: "
            "the wire takes float values and timestamps, never a "
            "pickled key table"
        )
    if bool(flags & FLAG_TIMES) is not (arity == 3):
        raise ProtocolError(
            "record columns carry a timestamp column exactly when the "
            "frame is SUBMIT_EVENT_BATCH"
        )
    expected = (8 + 4 + (8 if arity == 3 else 0)) * count + table_bytes
    body = _check_seal(payload, crc, expected, "record-columns")
    values_end = 8 * count
    codes_end = values_end + 4 * count
    table_start = len(body) - table_bytes
    return RecordColumns(
        _unpack_column(body[values_end:codes_end], "I"),
        decode_key_table(body[table_start:], ProtocolError),
        _unpack_column(
            body[:values_end], "d" if flags & FLAG_FLOAT else "q"
        ),
        _unpack_column(body[codes_end:table_start], "d")
        if arity == 3
        else None,
    )


# -- submit shapes --------------------------------------------------
#
# Each ingress shape is written once, here: a ``build_*`` half (client
# arguments -> ``(frame type, payload, event time)``) beside a
# ``_parse_*`` half (decoded payload -> gateway arguments and record
# count), bound to its frame type and its
# :class:`~repro.service.gateway.ServiceGateway` verb by one row of
# :data:`SUBMIT_SHAPES`.  Adding a shape is one row plus one gateway
# verb; clients, server and admission handle "a submit", not a kind.

#: What a build half returns: ``(frame type, payload, event time)``.
SubmitRequest = Tuple[FrameType, Any, Optional[float]]

#: How a refused row of each arity is named in the ERROR reply.
_ROW_WORDS = {2: "(key, value) pair", 3: "(key, timestamp, value) triple"}
_row_key = itemgetter(0)


def _require_routable(name: str, keys: Iterable[Any]) -> None:
    """Refuse keys the router's shard memo (a dict) cannot hold."""
    try:
        frozenset(keys)
    except TypeError as exc:
        raise ProtocolError(f"{name} key cannot be routed: {exc}") from exc


def _rows(
    name: str, payload: Any, arity: int, noun: str = "record"
) -> List[Tuple[Any, ...]]:
    """Validate a sequence of ``arity``-tuples with routable keys.

    This loop runs on the server's event-loop thread for every record:
    one pass for shape (rows the codec already decoded as tuples are
    kept, not rebuilt), then one C-level pass over the keys.
    """
    if not isinstance(payload, (list, tuple)):
        raise ProtocolError(
            f"{name} payload must be a sequence of "
            f"{_ROW_WORDS[arity]}s, got {type(payload).__name__}"
        )
    rows: List[Tuple[Any, ...]] = []
    append = rows.append
    for row in payload:
        if type(row) is tuple and len(row) == arity:
            append(row)
        elif isinstance(row, (list, tuple)) and len(row) == arity:
            append(tuple(row))
        else:
            raise ProtocolError(
                f"{name} {noun} must be a {_ROW_WORDS[arity]}, got {row!r}"
            )
    _require_routable(name, map(_row_key, rows))
    return rows


def _event_timestamp(timestamp: Any) -> float:
    """Validate one event timestamp: a finite number, not a bool."""
    if isinstance(timestamp, bool) or not isinstance(
        timestamp, (int, float)
    ):
        raise ProtocolError(
            f"event timestamp must be a number, got {timestamp!r}"
        )
    try:
        finite = math.isfinite(timestamp)
    except OverflowError:  # an int no f64 can hold
        finite = False
    if not finite:
        # A NaN timestamp passes every downstream comparison
        # (including "timestamp < origin") and would wedge the
        # service's reorder buffer forever; reject it at the wire.
        raise ProtocolError(
            f"event timestamp must be finite, got {timestamp!r}"
        )
    return float(timestamp)


def build_submit(key: Any, value: Any) -> SubmitRequest:
    """``SUBMIT``: one keyed record, payload ``(key, value)``."""
    return FrameType.SUBMIT, (key, value), None


def _parse_one(payload: Any, event_time: Optional[float]):
    (record,) = _rows("SUBMIT", [payload], 2)
    return record, 1


def build_submit_batch(records: Iterable[Tuple[Any, Any]]) -> SubmitRequest:
    """``SUBMIT_BATCH``: payload ``[(key, value), ...]``."""
    return FrameType.SUBMIT_BATCH, list(map(tuple, records)), None


def _parse_batch(payload: Any, event_time: Optional[float]):
    if type(payload) is RecordColumns:
        payload.key_column()  # refuses a key code outside the table
        return (payload,), len(payload)
    records = _rows("SUBMIT_BATCH", payload, 2)
    return (records,), len(records)


def build_submit_column(
    key: Any, values: Iterable[Any]
) -> Optional[SubmitRequest]:
    """``SUBMIT_COLUMN``: payload ``(key, kind, body)``.

    Homogeneous int64/float64 columns travel packed (kind ``"q"`` /
    ``"d"``, see :func:`pack_column`), anything else as the tagged
    object column ``"o"``.  An empty column builds nothing (``None``):
    there is no frame to send.
    """
    column = list(values)
    if not column:
        return None
    packed = pack_column(column) or ("o", column)
    return FrameType.SUBMIT_COLUMN, (key, *packed), None


def _parse_column(payload: Any, event_time: Optional[float]):
    """The column as ``SUBMIT_BATCH`` rows of its one key, paired in
    one C-level pass over a typed view of a packed body (or over the
    list of an ``"o"`` body)."""
    if not isinstance(payload, (list, tuple)) or len(payload) != 3:
        raise ProtocolError(
            "SUBMIT_COLUMN payload must be a (key, kind, body) "
            f"triple, got {payload!r}"
        )
    key, kind, body = payload
    _require_routable("SUBMIT_COLUMN", (key,))
    if kind in ("q", "d"):
        column = _unpack_column(body, kind)
    elif kind == "o":
        if not isinstance(body, (list, tuple)):
            raise ProtocolError(
                f"object column body must be a sequence, got "
                f"{type(body).__name__}"
            )
        column = body
    else:
        raise ProtocolError(
            f"unknown column kind {kind!r} (expected 'q', 'd', or 'o')"
        )
    records = list(zip(repeat(key), column))
    return (records,), len(records)


def build_submit_event(
    key: Any, value: Any, timestamp: float
) -> SubmitRequest:
    """``SUBMIT_EVENT``: payload ``(key, value)``, the timestamp in
    the v3 event-time header field (the only shape that needs v3)."""
    return FrameType.SUBMIT_EVENT, (key, value), float(timestamp)


def _parse_event(payload: Any, event_time: Optional[float]):
    if event_time is None:
        raise ProtocolError(
            "SUBMIT_EVENT requires the protocol-v3 event-time "
            "header field"
        )
    timestamp = _event_timestamp(event_time)
    ((key, value),) = _rows("SUBMIT_EVENT", [payload], 2, "payload")
    return (key, value, timestamp), 1


def build_submit_event_batch(
    records: Iterable[Tuple[Any, float, Any]],
) -> SubmitRequest:
    """``SUBMIT_EVENT_BATCH``: payload ``[(key, timestamp, value),
    ...]`` — timestamps in-payload, so any framing version carries it."""
    batch = [(key, float(stamp), value) for key, stamp, value in records]
    return FrameType.SUBMIT_EVENT_BATCH, batch, None


def _parse_event_batch(payload: Any, event_time: Optional[float]):
    if type(payload) is RecordColumns:
        payload.key_column()  # refuses a key code outside the table
        # The f64 column proves "a number"; finiteness is one pass.
        if not all(map(math.isfinite, payload.timestamps)):
            _event_timestamp(
                next(filterfalse(math.isfinite, payload.timestamps))
            )
        return (payload,), len(payload)
    rows = _rows("SUBMIT_EVENT_BATCH", payload, 3)
    records = [
        (key, _event_timestamp(stamp), value) for key, stamp, value in rows
    ]
    return (records,), len(records)


class SubmitShape(NamedTuple):
    """One row of the submit table: an ingress shape, written once.

    ``parse(payload, event_time)`` refuses with
    :class:`~repro.errors.ProtocolError` — wrong row shape or arity, a
    key that does not hash (it could not be routed), a timestamp that
    is not a finite number, a malformed column — before anything is
    admitted or routed.
    """

    #: The :class:`~repro.service.gateway.ServiceGateway` method the
    #: shape becomes: ``gateway.<verb>(*args, trace_id)``.
    verb: str
    #: Client arguments -> :data:`SubmitRequest` (``None``: no frame).
    build: Callable[..., Optional[SubmitRequest]]
    #: Decoded frame -> ``(args, count)``: the verb's arguments and the
    #: records they carry (what admission control budgets).
    parse: Callable[[Any, Optional[float]], Tuple[Tuple[Any, ...], int]]


#: The submit table: every frame type that carries records.
SUBMIT_SHAPES = {
    FrameType.SUBMIT: SubmitShape("submit", build_submit, _parse_one),
    FrameType.SUBMIT_BATCH: SubmitShape(
        "submit_many", build_submit_batch, _parse_batch
    ),
    FrameType.SUBMIT_COLUMN: SubmitShape(
        "submit_many", build_submit_column, _parse_column
    ),
    FrameType.SUBMIT_EVENT: SubmitShape(
        "submit_event", build_submit_event, _parse_event
    ),
    FrameType.SUBMIT_EVENT_BATCH: SubmitShape(
        "submit_events", build_submit_event_batch, _parse_event_batch
    ),
}


# -- frame codec ----------------------------------------------------


class Frame(NamedTuple):
    """A decoded frame: type, payload, trace id, and event time."""

    frame_type: FrameType
    payload: Any
    trace_id: Optional[int]
    #: v3 event-time header field, ``None`` on v1/v2 frames.
    event_time: Optional[float] = None


def encode_frame(
    frame_type: FrameType,
    payload: Any = None,
    trace_id: Optional[int] = None,
    event_time: Optional[float] = None,
) -> bytes:
    """Frame one value as ``header [+ trace id [+ event time]] + payload``.

    The minimal version for the frame's content is emitted: v1 without
    a trace id — byte-identical to what this function produced before
    the trace field existed — v2 with one, and v3 only when an event
    timestamp must travel in the header.  Old peers therefore keep
    interoperating with clients that never send event-timestamped
    records.
    """
    body = None
    if frame_type in _ROW_ARITY:
        body = _encode_record_columns(payload, _ROW_ARITY[frame_type])
    elif frame_type is FrameType.ANSWERS and type(payload) is AnswerColumns:
        body = _encode_answer_columns(payload)
    if body is None:
        body = encode_value(payload)
    if len(body) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(body)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    if trace_id is not None and not 1 <= trace_id <= MAX_TRACE_ID:
        raise ProtocolError(
            f"trace id {trace_id!r} outside [1, 2**64 - 1] "
            "(0 is reserved for 'no trace')"
        )
    if event_time is not None:
        version = EVENT_TIME_PROTOCOL_VERSION
    elif trace_id is not None:
        version = PROTOCOL_VERSION
    else:
        version = LEGACY_PROTOCOL_VERSION
    # Fields are appended the way try_decode_frame_traced reads them.
    frame = HEADER.pack(MAGIC, version, int(frame_type), len(body))
    if version >= 2:
        frame += _TRACE_FIELD.pack(trace_id or 0)
    if version >= 3:
        frame += _EVENT_FIELD.pack(event_time)
    return frame + body


def try_decode_frame_traced(
    buffer: bytes, offset: int = 0
) -> Optional[Tuple[Frame, int]]:
    """Decode one frame starting at ``offset``, if fully buffered.

    Returns ``(frame, next_offset)``, or ``None`` when the buffer
    holds only a prefix of a frame (read more bytes and try again).
    Accepts every version in :data:`SUPPORTED_VERSIONS`: v1 frames
    decode with ``trace_id=None``, as do v2 frames carrying the
    reserved trace id 0.  Malformed bytes raise
    :class:`~repro.errors.ProtocolError`.
    """
    if len(buffer) - offset < HEADER.size:
        return None
    magic, version, type_byte, length = HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
        )
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this side speaks {sorted(SUPPORTED_VERSIONS)})"
        )
    try:
        frame_type = FrameType(type_byte)
    except ValueError as exc:
        raise ProtocolError(
            f"unknown frame type 0x{type_byte:02x}"
        ) from exc
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    start = offset + HEADER.size
    trace_id: Optional[int] = None
    event_time: Optional[float] = None
    if version >= 2:
        if len(buffer) - start < _TRACE_FIELD.size:
            return None
        raw_trace = _TRACE_FIELD.unpack_from(buffer, start)[0]
        trace_id = raw_trace or None
        start += _TRACE_FIELD.size
    if version >= 3:
        if len(buffer) - start < _EVENT_FIELD.size:
            return None
        event_time = _EVENT_FIELD.unpack_from(buffer, start)[0]
        start += _EVENT_FIELD.size
    if len(buffer) - start < length:
        return None
    body = bytes(buffer[start : start + length])
    if frame_type in _ROW_ARITY and body[:1] == b"\x0b":
        payload = _decode_record_columns(body, _ROW_ARITY[frame_type])
    elif frame_type is FrameType.ANSWERS and body[:1] == b"\x0c":
        payload = _decode_answer_columns(body)
    else:
        payload = decode_value(body)
    return (
        Frame(frame_type, payload, trace_id, event_time),
        start + length,
    )


def try_decode_frame(
    buffer: bytes, offset: int = 0
) -> Optional[Tuple[FrameType, Any, int]]:
    """Decode one frame starting at ``offset``, if fully buffered.

    Returns ``(frame_type, payload, next_offset)``, or ``None`` when
    the buffer holds only a prefix of a frame (read more bytes and try
    again).  Trace ids are decoded and discarded — call
    :func:`try_decode_frame_traced` to keep them.  Malformed bytes
    raise :class:`~repro.errors.ProtocolError`.
    """
    decoded = try_decode_frame_traced(buffer, offset)
    if decoded is None:
        return None
    frame, next_offset = decoded
    return frame.frame_type, frame.payload, next_offset


class FrameDecoder:
    """Incremental frame decoder over a byte stream.

    Feed it whatever chunks the transport hands you; iterate
    :meth:`frames` for every complete frame.  Partial frames stay
    buffered across calls.  A malformed frame raises
    :class:`~repro.errors.ProtocolError` and poisons the decoder —
    after a framing error the stream offset is unknowable, so the
    connection must be torn down rather than resynchronised.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> None:
        """Append raw bytes received from the transport."""
        if self._poisoned:
            raise ProtocolError(
                "decoder previously hit a framing error; the stream "
                "offset is unknown and the connection must be closed"
            )
        self._buffer += data

    def frames(self) -> Iterator[Tuple[FrameType, Any]]:
        """Yield ``(frame_type, payload)`` for each buffered frame."""
        for frame in self.frames_traced():
            yield frame.frame_type, frame.payload

    def frames_traced(self) -> Iterator[Frame]:
        """Yield a :class:`Frame` (with trace id) per buffered frame."""
        offset = 0
        try:
            while True:
                decoded = try_decode_frame_traced(self._buffer, offset)
                if decoded is None:
                    break
                frame, offset = decoded
                yield frame
        except ProtocolError:
            self._poisoned = True
            raise
        finally:
            if offset:
                del self._buffer[:offset]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed by a complete frame."""
        return len(self._buffer)


# -- answer marshalling ---------------------------------------------
#
# Global-mode answers are (position, Query, value) triples; Query does
# not travel on the wire, its (range, slide, name) does.


def _spec_of(query: Any) -> Tuple[Any, ...]:
    """A query's wire spec: ``(range_size, slide, name)``, or
    ``("time", range_seconds, slide_seconds, name)`` for a time query."""
    if hasattr(query, "range_seconds"):
        return ("time", query.range_seconds, query.slide_seconds, query.name)
    return (query.range_size, query.slide, query.name)


def _query_of(spec: Any) -> Any:
    """The :class:`~repro.windows.query.Query` (or
    :class:`~repro.windows.timebased.TimeQuery`) a wire spec names.  A
    spec of the wrong shape, or one the query refuses, raises
    :class:`~repro.errors.ProtocolError`."""
    try:
        if isinstance(spec, tuple) and len(spec) == 4 and spec[0] == "time":
            return TimeQuery(spec[1], spec[2], name=spec[3])
        range_size, slide, name = spec
        return Query(range_size, slide, name=name)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"malformed query spec in answer row: {spec!r}"
        ) from exc


def encode_answers(answers) -> List[Tuple[Any, ...]]:
    """Marshal engine/service answers into wire-friendly tuples.

    Each ``(position, query, value)`` triple becomes ``(position,
    (range_size, slide, name), value)``; per-key four-tuples keep the
    leading key.  Time-query answers marshal the query as the tagged
    4-tuple ``("time", range_seconds, slide_seconds, name)`` — count
    specs stay 3-tuples, so pre-v3 answer bytes are unchanged.  A
    reply repeats a handful of queries many times over, so each query
    object's spec is built once per call.
    """
    specs: dict = {}
    marshalled = []
    for answer in answers:
        *prefix, query, value = answer
        spec = specs.get(id(query))
        if spec is None:
            spec = specs[id(query)] = _spec_of(query)
        marshalled.append((*prefix, spec, value))
    return marshalled


def decode_answers(rows) -> List[Tuple[Any, ...]]:
    """Rebuild :class:`~repro.windows.query.Query` (or
    :class:`~repro.windows.timebased.TimeQuery`) objects client-side,
    one per distinct spec of the call (queries are immutable, so the
    answers of one reply share them).

    ``rows`` is either body of ``ANSWERS``: the tagged row list, or an
    :class:`AnswerColumns` view, whose answers are built in one C-level
    ``zip`` of its columns.
    """
    if type(rows) is AnswerColumns:
        by_slot = list(map(_query_of, rows.specs))
        slotted = map(by_slot.__getitem__, rows.slots)
        return list(zip(rows.positions, slotted, rows.values))
    queries: dict = {}
    rebuilt = []
    for row in rows:
        *prefix, spec, value = row
        if type(spec) is list:
            spec = tuple(spec)
        try:
            query = queries.get(spec)
        except TypeError:
            query = None  # an unhashable field: rebuilt (and refused) below
        if query is None:
            query = queries[spec] = _query_of(spec)
        rebuilt.append((*prefix, query, value))
    return rebuilt


# -- answer columns -------------------------------------------------
#
# The columnar encoding of ANSWERS, sent only on a connection that
# opened with HELLO: one value tagged ``_TAG_ANSWER_COLUMNS``, legal
# only as the *whole* payload of ANSWERS (nested, or on any other frame
# type, it is an unknown tag).  The record columns' envelope — seal,
# header fields, columns, table — with other columns::
#
#     crc32 u32 | answers u32 | spec-table bytes u32 | flags u8
#     positions   answers * 8   i64, or f64 window ends with
#                               _FLAG_FLOAT_POSITIONS
#     slots       answers * 4   u32 indices into the spec table
#     values      answers * 8   i64, or f64 with FLAG_FLOAT
#     spec table  the reply's distinct query specs, a tagged list

#: Position column is f64 (time-mode window ends), else i64.
_FLAG_FLOAT_POSITIONS = 0x02


class AnswerColumns:
    """The answers of one columnar ``ANSWERS`` payload, as columns.

    What the decoder returns for an answer-columns body (typed views
    over the frame's one ``bytes`` copy), and what the server hands
    :func:`encode_frame` to send one (:func:`encode_answer_columns`).
    Like :class:`RecordColumns` it is sized, *iterates as the rows the
    tagged body decodes to* — ``(position, spec, value)`` — and
    compares equal to that row list; :func:`decode_answers` takes
    either body.

    Attributes:
        positions: ``memoryview('q')``, or ``memoryview('d')`` of window
            ends for time queries.
        slots: ``memoryview('I')`` — per answer, an index into
            :attr:`specs`.
        values: ``memoryview('q')`` or ``memoryview('d')``.
        specs: The reply's distinct query specs (see :func:`_spec_of`).
    """

    __slots__ = ("positions", "slots", "values", "specs")

    def __init__(
        self,
        positions: Sequence[Any],
        slots: Sequence[int],
        values: Sequence[Any],
        specs: List[Any],
    ):
        self.positions = positions
        self.slots = slots
        self.values = values
        self.specs = specs

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Tuple[Any, Any, Any]]:
        slotted = map(self.specs.__getitem__, self.slots)
        return zip(self.positions, slotted, self.values)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (list, AnswerColumns)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"AnswerColumns({list(self)!r})"


def encode_answer_columns(answers: Any) -> Optional[AnswerColumns]:
    """Engine/service answers as :class:`AnswerColumns`, or ``None``
    when they must travel as the tagged :func:`encode_answers` rows.

    Eligibility is a property of the answers and nothing else: a
    non-empty list of exactly 3-tuples whose positions are all exactly
    ``int`` within i64 or all exactly ``float``, and whose values are
    too (:func:`pack_column`'s check).  Per-key 4-tuples, bigints,
    strings and mixed types travel tagged.  Queries get their slot by
    ``id`` — one C-level pass, no query hashed — and their spec once.
    """
    if (
        type(answers) is not list
        or set(map(type, answers)) != {tuple}
        or set(map(len, answers)) != {3}
    ):
        return None
    positions, queries, values = zip(*answers)
    packed_positions = pack_column(positions)
    packed_values = pack_column(values)
    if packed_positions is None or packed_values is None:
        return None
    position_kind, position_bytes = packed_positions
    value_kind, value_bytes = packed_values
    ids = list(map(id, queries))
    by_id = dict(zip(ids, queries))
    slot_of = dict(zip(by_id, range(len(by_id))))
    return AnswerColumns(
        memoryview(position_bytes).cast(position_kind),
        memoryview(array("I", map(slot_of.__getitem__, ids))),
        memoryview(value_bytes).cast(value_kind),
        list(map(_spec_of, by_id.values())),
    )


def _encode_answer_columns(columns: AnswerColumns) -> bytes:
    flags = (FLAG_FLOAT if columns.values.format == "d" else 0) | (
        _FLAG_FLOAT_POSITIONS if columns.positions.format == "d" else 0
    )
    table = encode_value(columns.specs)
    parts = (columns.positions, columns.slots, columns.values, table)
    return _seal(_TAG_ANSWER_COLUMNS, len(columns), flags, parts)


def _decode_answer_columns(payload: bytes) -> AnswerColumns:
    """Decode an answer-columns payload into views over ``payload``.

    Damage is a framing error, raised here: a short header, flag bits
    this side does not know, a body whose length is not what the count
    and table length imply, a CRC mismatch, a spec table that is not a
    tagged list, a slot outside it.  A spec the query classes refuse is
    :func:`decode_answers`' :class:`~repro.errors.ProtocolError`.
    """
    crc, count, table_bytes, flags = _open_seal(payload, "answer-columns")
    unknown = flags & ~(FLAG_FLOAT | _FLAG_FLOAT_POSITIONS)
    if unknown:
        raise ProtocolError(
            f"answer columns carry unsupported flag bits {unknown:#04x}"
        )
    slots_start, values_start, table_start = 8 * count, 12 * count, 20 * count
    body = _check_seal(
        payload, crc, table_start + table_bytes, "answer-columns"
    )
    specs = decode_value(bytes(body[table_start:]))
    if type(specs) is not list:
        raise ProtocolError(
            f"answer-columns spec table must be a list, got "
            f"{type(specs).__name__}"
        )
    slots = _unpack_column(body[slots_start:values_start], "I")
    if count and max(slots) >= len(specs):
        raise ProtocolError(
            f"answer columns hold a query slot outside their "
            f"{len(specs)}-entry spec table"
        )
    return AnswerColumns(
        _unpack_column(
            body[:slots_start],
            "d" if flags & _FLAG_FLOAT_POSITIONS else "q",
        ),
        slots,
        _unpack_column(
            body[values_start:table_start], "d" if flags & FLAG_FLOAT else "q"
        ),
        specs,
    )
