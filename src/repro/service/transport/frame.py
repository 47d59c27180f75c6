"""Columnar frame codec for the shared-memory data plane.

A frame is one self-validating unit on a ring: a fixed 36-byte header
followed by a body whose layout depends on the frame kind.  Every
frame carries a CRC32 over header-plus-body, so a torn write (producer
killed mid-frame, or chaos-injected corruption) is detected at the
consumer rather than silently decoded into wrong aggregates.

Header layout (little-endian)::

    offset  0  magic       b"SDF1"
    offset  4  kind        u8   (FrameKind)
    offset  5  flags       u8   (_FLAG_* bits)
    offset  6  shard       u16
    offset  8  seq         u64
    offset 16  watermark   u64  (position + 1; 0 encodes None)
    offset 24  count       u32  (records in a columnar frame)
    offset 28  key_table   u32  (key-table byte length)
    offset 32  crc32       u32  (over header[:32] + body)
    offset 36  body

Columnar body (``FrameKind.COLUMNAR``), all columns contiguous::

    positions   count * 8 bytes, native i64 — or, with ``_FLAG_RANGE``,
                16 bytes: the first position and the stride (native
                i64 each) of an arithmetic run of positions
    values      count * 8 bytes, native i64 or f64 (``_FLAG_FLOAT``)
    key_index   count * 4 bytes, native u32 into the key table; absent
                with ``_FLAG_KEYLESS``
    traces      count * 8 bytes, native u64, present iff
                ``_FLAG_TRACES`` (0 encodes "no trace id")
    timestamps  count * 8 bytes, native f64, present iff
                ``_FLAG_TIMES`` (event-time seconds)
    key table   ``key_table`` bytes (distinct keys, first-seen order);
                absent (``key_table`` = 0) with ``_FLAG_KEYLESS``

Global- and time-mode frames are ranged and keyless: a shard there
folds values by slice and never reads a key, so such a frame is 8
bytes per record of values plus the trace or timestamp column when
present.  Per-key frames carry their position column and keys.

The decoder returns the value column (and a position column) as
``memoryview.cast`` typed views **aliasing the ring** — no copy, no
unpickle; ranged positions decode as a ``range``.  Values
deliberately decode through ``memoryview`` rather than
``numpy.frombuffer``: iterating a ``'q'`` view yields Python
ints, so integer aggregation keeps arbitrary precision and the
columnar path is bit-for-bit equivalent to the pickle transport.
The kernels unbox the view with one ``tolist()``.

The capability check is strict on purpose: a value column encodes only
when every value is exactly ``int`` (within i64 range) or every value
exactly ``float``.  ``bool`` is an ``int`` subclass but round-trips as
``int`` through an i64 column, which would change ``bool_all``-style
answers — so mixed or subclassed types fall back to a
``FrameKind.PICKLED`` frame on the same ring, preserving order.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from array import array
from enum import IntEnum
from typing import Any, List, Optional, Sequence, Union

from repro.errors import TornFrameError
from repro.service.transport.columns import (
    FLAG_FLOAT as _FLAG_FLOAT,
    FLAG_TIMES as _FLAG_TIMES,
    column_bytes,
    decode_key_table,
    encode_key_table,
    encode_keys,
    encode_values,
)

MAGIC = b"SDF1"
HEADER_BYTES = 36

_HEADER = struct.Struct("<4sBBHQQIII")
_CRC_OFFSET = 32
_U32 = struct.Struct("<I")

# Beside the shared FLAG_FLOAT (0x01) and FLAG_TIMES (0x08):
_FLAG_TRACES = 0x02  # trace-id column present
_FLAG_KEYS_PICKLED = 0x04  # key table is a pickled tuple (ring only)
_FLAG_RANGE = 0x10  # positions are (first, stride), not a column
_FLAG_KEYLESS = 0x20  # no key index column and no key table

#: A ranged frame's positions: first position and stride.
_RANGE = struct.Struct("=qq")


class FrameKind(IntEnum):
    """What a ring frame carries (kind 3 is unassigned)."""

    #: A numeric batch as flat columns (the zero-copy fast path).
    COLUMNAR = 1
    #: A pickled :class:`~repro.service.partition.Batch` (fallback).
    PICKLED = 2
    #: Shutdown request on the data ring; the worker echoes it on the
    #: result ring, after its last output, as its acknowledgement.
    STOP = 4
    #: A pickled :class:`~repro.service.shard.ShardOutput` (result ring).
    OUTPUT = 5


# -- frame assembly ------------------------------------------------------


def _seal(header_fields: tuple, body: bytes) -> bytes:
    header = bytearray(_HEADER.pack(*header_fields, 0))
    crc = zlib.crc32(body, zlib.crc32(bytes(header[:_CRC_OFFSET])))
    _U32.pack_into(header, _CRC_OFFSET, crc)
    return bytes(header) + body


def encode_batch_frame(
    shard: int,
    seq: int,
    watermark: Optional[int],
    positions: Sequence[int],
    keys: Optional[Sequence[Any]],
    values: Sequence[Any],
    traces: Optional[Sequence[Optional[int]]],
    timestamps: Optional[Sequence[float]] = None,
) -> Optional[bytes]:
    """Encode one batch as a columnar frame; ``None`` if unsupported.

    Returns ``None`` when the value column fails the capability check
    (mixed/unsupported types, out-of-range ints) so the caller can emit
    a :func:`encode_pickled_frame` instead.  Positions must be
    i64-representable (they are stream indices, so always are); a
    ``range`` travels as its first position and stride.  ``keys`` is
    ``None`` for a keyless frame.  ``timestamps`` (event-time seconds,
    f64) travels as an extra column when present.
    """
    encoded = encode_values(values)
    if encoded is None:
        return None
    value_bytes, is_float = encoded
    count = len(values)
    flags = _FLAG_FLOAT if is_float else 0
    if type(positions) is range:
        flags |= _FLAG_RANGE
        parts = [_RANGE.pack(positions.start, positions.step), value_bytes]
    else:
        parts = [column_bytes(positions, "q"), value_bytes]
    key_table = b""
    if keys is None:
        flags |= _FLAG_KEYLESS
    else:
        key_column = encode_keys(keys)
        if key_column is None:
            return None
        distinct, key_index = key_column
        key_table = encode_key_table(distinct)
        if key_table is None:
            # Keys the compact table cannot carry: pickle the distinct
            # tuple (never the per-record column).
            key_table = pickle.dumps(tuple(distinct), protocol=5)
            flags |= _FLAG_KEYS_PICKLED
        parts.append(key_index)
    if traces is not None and any(t is not None for t in traces):
        flags |= _FLAG_TRACES
        parts.append(array("Q", (t or 0 for t in traces)).tobytes())
    if timestamps is not None:
        flags |= _FLAG_TIMES
        parts.append(column_bytes(timestamps, "d"))
    parts.append(key_table)
    body = b"".join(parts)
    header_fields = (
        MAGIC,
        int(FrameKind.COLUMNAR),
        flags,
        shard,
        seq,
        0 if watermark is None else watermark + 1,
        count,
        len(key_table),
    )
    return _seal(header_fields, body)


def encode_pickled_frame(
    kind: FrameKind, shard: int, seq: int, payload: Any
) -> bytes:
    """Encode an arbitrary object as a CRC-protected pickled frame."""
    body = pickle.dumps(payload, protocol=5)
    header_fields = (MAGIC, int(kind), 0, shard, seq, 0, 0, 0)
    return _seal(header_fields, body)


def encode_control_frame(kind: FrameKind, shard: int, seq: int = 0) -> bytes:
    """Encode a bodyless control frame (``STOP`` or its echo)."""
    return _seal((MAGIC, int(kind), 0, shard, seq, 0, 0, 0), b"")


class DecodedFrame:
    """One validated frame, with zero-copy columns where applicable.

    For ``COLUMNAR`` frames, :attr:`values` (and :attr:`positions`,
    unless the frame is ranged and they are a ``range``) are typed
    ``memoryview``s aliasing the ring buffer — iterate or hand them to
    batch kernels, then release before the ring commits.  Keys
    (``None`` for a keyless frame) and traces are decoded eagerly
    (small, and must outlive the view).  For ``PICKLED``/``OUTPUT``
    frames, :attr:`payload` holds the unpickled object.
    """

    __slots__ = (
        "kind",
        "shard",
        "seq",
        "watermark",
        "count",
        "positions",
        "values",
        "keys",
        "traces",
        "timestamps",
        "payload",
    )

    def __init__(self, kind: FrameKind, shard: int, seq: int):
        self.kind = kind
        self.shard = shard
        self.seq = seq
        self.watermark: Optional[int] = None
        self.count = 0
        self.positions: Union[memoryview, range, None] = None
        self.values: Optional[memoryview] = None
        self.keys: Optional[List[Any]] = None
        self.traces: Optional[List[Optional[int]]] = None
        self.timestamps: Optional[memoryview] = None
        self.payload: Any = None

    def release(self) -> None:
        """Release ring-aliasing views so the ring can commit/close."""
        for view in (self.positions, self.values, self.timestamps):
            if type(view) is memoryview:
                view.release()
        self.positions = self.values = self.timestamps = None


def decode_frame(frame: memoryview) -> DecodedFrame:
    """Validate and decode one frame read off a ring.

    Raises :class:`~repro.errors.TornFrameError` on bad magic, an
    impossible length, a CRC mismatch — the torn-write signature — or
    a ranged frame whose stride is not positive.
    """
    if len(frame) < HEADER_BYTES:
        raise TornFrameError(
            f"frame of {len(frame)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    (
        magic,
        kind_raw,
        flags,
        shard,
        seq,
        watermark_raw,
        count,
        key_table_len,
    ) = _HEADER.unpack_from(frame, 0)[:8]
    if magic != MAGIC:
        raise TornFrameError(f"bad frame magic {bytes(magic)!r}")
    crc_stored = _U32.unpack_from(frame, _CRC_OFFSET)[0]
    body = frame[HEADER_BYTES:]
    crc_actual = zlib.crc32(body, zlib.crc32(bytes(frame[:_CRC_OFFSET])))
    if crc_actual != crc_stored:
        body.release()
        raise TornFrameError(
            f"frame CRC mismatch (stored {crc_stored:#010x}, "
            f"computed {crc_actual:#010x}) for shard {shard} seq {seq}"
        )
    try:
        kind = FrameKind(kind_raw)
    except ValueError:
        body.release()
        raise TornFrameError(f"unknown frame kind {kind_raw}") from None
    decoded = DecodedFrame(kind, shard, seq)
    if kind is FrameKind.STOP:
        body.release()
        return decoded
    if kind in (FrameKind.PICKLED, FrameKind.OUTPUT):
        decoded.payload = pickle.loads(body)
        body.release()
        return decoded
    # COLUMNAR: carve typed views out of the body without copying.
    decoded.watermark = None if watermark_raw == 0 else watermark_raw - 1
    decoded.count = count
    width = 8 * count
    ranged = flags & _FLAG_RANGE
    keyed = not flags & _FLAG_KEYLESS
    expected = (_RANGE.size if ranged else width) + width
    if keyed:
        expected += 4 * count + key_table_len
    if flags & _FLAG_TRACES:
        expected += width
    if flags & _FLAG_TIMES:
        expected += width
    size = len(body)
    if size != expected or (key_table_len and not keyed):
        body.release()
        raise TornFrameError(
            f"columnar frame body is {size} bytes and declares a "
            f"{key_table_len}-byte key table; expected {expected} bytes "
            f"for {count} records" + ("" if keyed else " and no table")
        )
    if ranged:
        first, stride = _RANGE.unpack_from(body)
        if stride < 1:
            body.release()
            raise TornFrameError(
                f"ranged frame has position stride {stride}; "
                "positions ascend"
            )
        decoded.positions = range(first, first + stride * count, stride)
        offset = _RANGE.size
    else:
        decoded.positions = body[:width].cast("q")
        offset = width
    value_fmt = "d" if flags & _FLAG_FLOAT else "q"
    decoded.values = body[offset : offset + width].cast(value_fmt)
    offset += width
    key_index = body[offset : offset + 4 * count] if keyed else None
    if keyed:
        offset += 4 * count
    if flags & _FLAG_TRACES:
        trace_view = body[offset : offset + width].cast("Q")
        decoded.traces = [t or None for t in trace_view]
        trace_view.release()
        offset += width
    if flags & _FLAG_TIMES:
        decoded.timestamps = body[offset : offset + width].cast("d")
        offset += width
    try:
        if key_index is not None:
            decoded.keys = _decode_keys(
                body[offset:], key_index, flags, count
            )
    except TornFrameError:
        decoded.release()
        raise
    finally:
        body.release()
    return decoded


def _decode_keys(
    table_view: memoryview, key_index: memoryview, flags: int, count: int
) -> List[Any]:
    """A keyed frame's key column, from its key table and u32 index."""
    codes = key_index.cast("I")
    try:
        if flags & _FLAG_KEYS_PICKLED:
            distinct = list(pickle.loads(table_view))
        else:
            distinct = decode_key_table(table_view, TornFrameError)
        if len(distinct) == 1:
            # Mirror of the encoder's single-key fast path: a sealed
            # frame with one distinct key has an all-zero index column.
            return distinct * count
        if count and not distinct:
            raise TornFrameError(
                "columnar frame has records but no key table"
            )
        try:
            # The u32 cast guarantees non-negative indices, so a plain
            # IndexError is exactly the out-of-range check — no
            # separate max() pass over the column.
            return list(map(distinct.__getitem__, codes))
        except IndexError:
            raise TornFrameError(
                "key index out of range for key table"
            ) from None
    finally:
        codes.release()
        key_index.release()
        table_view.release()
