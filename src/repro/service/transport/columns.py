"""The column codec shared by the shm frame and the wire's record columns.

A batch of keyed records travels as flat columns: one 8-byte value
column (i64 or f64), one u32 *key-code* column indexing a table of the
batch's distinct keys, and optionally one f64 event-timestamp column.
What is independent of the envelope lives here and is written once:

* :func:`encode_values` — the exact-type capability check and value
  column packer;
* :func:`encode_keys` — dictionary encoding (distinct keys, code
  column) that never merges keys of different type;
* :func:`encode_key_table` / :func:`decode_key_table` — the compact
  tagged key table.

Two envelopes wrap these columns with their own header:
:mod:`repro.service.transport.frame` (shard, sequence, watermark,
positions, traces; native byte order, ring to worker) and
:mod:`repro.net.protocol` (record count, table length, flags, CRC;
little-endian, client to server).  Nothing here unpickles: a key the
compact table cannot carry makes :func:`encode_key_table` return
``None`` and the envelope decides — the ring pickles the distinct
tuple, the wire falls back to its tagged body.
"""

from __future__ import annotations

import struct
from array import array
from typing import Any, List, Optional, Sequence, Tuple, Type

#: Envelope flag bits whose meaning both envelopes share.
FLAG_FLOAT = 0x01  # value column is f64 (else i64)
FLAG_TIMES = 0x08  # event-timestamp column present (f64)

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Key-table entry tags: as the decoder reads them (ints) ...
_KEY_NONE = 0
_KEY_INT = 1
_KEY_FLOAT = 2
_KEY_STR = 3
_KEY_BYTES = 4
_KEY_TRUE = 5
_KEY_FALSE = 6
# ... and as the encoder writes them (one-byte strings).
_NONE, _INT, _FLOAT, _STR, _BYTES, _TRUE, _FALSE = (
    bytes([tag]) for tag in range(7)
)

#: The key types the compact table carries, matched exactly.
_COMPACT_KEY_TYPES = frozenset({type(None), bool, int, float, str, bytes})
#: Of those, the ones whose values compare equal across types
#: (``1 == True == 1.0``) or across signs (``0.0 == -0.0``).
_NUMERIC_KEY_TYPES = frozenset({bool, int, float})


# -- value column -------------------------------------------------------


def encode_values(values: Sequence[Any]) -> Optional[Tuple[bytes, bool]]:
    """Try to encode values as one flat column.

    Returns ``(column_bytes, is_float)`` when every value is exactly
    ``int`` (i64-representable) or exactly ``float``; ``None`` when the
    batch must take its envelope's fallback.  The ``type`` check is
    deliberately exact — ``bool`` and int subclasses would change
    type through an i64 column.
    """
    kinds = set(map(type, values))
    if not kinds:
        # Empty batches (watermark carriers) are trivially columnar.
        return b"", False
    if kinds == {int}:
        try:
            return array("q", values).tobytes(), False
        except OverflowError:
            return None
    if kinds == {float}:
        return array("d", values).tobytes(), True
    return None


def column_bytes(column: Sequence[Any], typecode: str) -> bytes:
    """A position (``"q"``) or timestamp (``"d"``) column as raw
    native-order bytes — a buffer copy for the router's typed
    ``array`` columns."""
    if type(column) is array and column.typecode == typecode:
        return column.tobytes()
    return array(typecode, column).tobytes()


# -- key column ---------------------------------------------------------


def encode_keys(keys: Sequence[Any]) -> Optional[Tuple[List[Any], bytes]]:
    """Dictionary-encode a key column: ``(distinct keys, u32 codes)``.

    Distinct keys are in first-seen order; the code column is ``4 *
    len(keys)`` native-order bytes.  Decoding ``distinct[code]`` gives
    back every key *with its type*: keys that compare equal but are
    not the same value — ``1``, ``True`` and ``1.0``; ``0.0`` and
    ``-0.0`` — get a table entry each (numeric key columns are keyed
    by ``repr``, which tells the six compact types and both zeros
    apart), where a plain ``dict`` would hand all of them the first
    one's entry.  Returns ``None`` for the columns it cannot encode
    exactly: such numeric keys mixed with keys outside the compact
    types, whose ``repr`` proves nothing, and keys that do not hash.

    Run-grouped batches overwhelmingly carry one key, by repeated
    reference: when the ends are the same object ``list.count``
    verifies the rest in one C pass of pointer compares — much cheaper
    than the hash-everything ``dict.fromkeys`` scan it short-circuits.
    """
    kinds = set(map(type, keys))
    numeric = kinds & _NUMERIC_KEY_TYPES
    if numeric and not kinds <= _COMPACT_KEY_TYPES:
        return None
    if float in numeric or len(numeric) > 1:
        by_repr = dict(zip(map(repr, keys), keys))
        distinct = list(by_repr.values())
        lookup = dict(zip(by_repr, range(len(by_repr))))
        codes = list(map(lookup.__getitem__, map(repr, keys)))
    elif (
        type(keys) is list
        and keys
        and keys[0] is keys[-1]
        and keys.count(keys[0]) == len(keys)
    ):
        # The index column is all zeros, which bytes() produces
        # without touching the keys again.
        return [keys[0]], bytes(4 * len(keys))
    else:
        try:
            distinct = list(dict.fromkeys(keys))
        except TypeError:
            return None
        lookup = dict(zip(distinct, range(len(distinct))))
        codes = list(map(lookup.__getitem__, keys))
    # From a list the array is sized once; from an iterator it grows.
    return distinct, array("I", codes).tobytes()


def encode_key_table(distinct: Sequence[Any]) -> Optional[bytes]:
    """Encode distinct keys as the compact tagged table.

    A u32 entry count, then per key a one-byte tag and a fixed or
    length-prefixed little-endian body.  Returns ``None`` when a key is
    not exactly ``None``/``bool``/i64 ``int``/``float``/``str``/
    ``bytes`` — tuples, bigints, subclasses, anything else.
    """
    parts: List[bytes] = [_U32.pack(len(distinct))]
    append = parts.append
    for key in distinct:
        kind = type(key)
        if kind is str:
            raw = key.encode("utf-8")
            append(_STR + _U32.pack(len(raw)))
            append(raw)
        elif kind is int:
            if not _I64_MIN <= key <= _I64_MAX:
                return None
            append(_INT + _I64.pack(key))
        elif kind is bool:
            append(_TRUE if key else _FALSE)
        elif kind is float:
            append(_FLOAT + _F64.pack(key))
        elif kind is bytes:
            append(_BYTES + _U32.pack(len(key)))
            append(key)
        elif key is None:
            append(_NONE)
        else:
            return None
    return b"".join(parts)


def decode_key_table(table: memoryview, error: Type[Exception]) -> List[Any]:
    """Decode a compact key table, trusting none of its bytes.

    ``error`` is the envelope's damage signal
    (:class:`~repro.errors.TornFrameError` off a ring,
    :class:`~repro.errors.ProtocolError` off the wire) and the only
    exception this raises: for a table too short for its count field,
    an entry count the table cannot hold, an entry that is truncated or
    runs past the table, an unknown tag, bad UTF-8, and bytes left over
    after the last entry.
    """
    raw = bytes(table)  # small, and bytes index and slice fastest
    size = len(raw)
    if size < 4:
        raise error(f"key table of {size} bytes has no entry count")
    count = _U32.unpack_from(raw, 0)[0]
    # Every entry is at least its tag byte: bound the loop (and the
    # list it grows) by what the table can actually hold.
    if count > size - 4:
        raise error(
            f"key table of {size} bytes cannot hold {count} entries"
        )
    keys: List[Any] = []
    append = keys.append
    offset = 4
    try:
        for _ in range(count):
            tag = raw[offset]
            offset += 1
            if tag == _KEY_STR or tag == _KEY_BYTES:
                start = offset + 4
                offset = start + _U32.unpack_from(raw, offset)[0]
                if offset > size:
                    raise error(
                        f"key-table entry runs {offset - size} bytes "
                        "past the table"
                    )
                body = raw[start:offset]
                append(str(body, "utf-8") if tag == _KEY_STR else body)
            elif tag == _KEY_INT:
                append(_I64.unpack_from(raw, offset)[0])
                offset += 8
            elif tag == _KEY_FLOAT:
                append(_F64.unpack_from(raw, offset)[0])
                offset += 8
            elif tag == _KEY_TRUE:
                append(True)
            elif tag == _KEY_FALSE:
                append(False)
            elif tag == _KEY_NONE:
                append(None)
            else:
                raise error(f"unknown key-table tag {tag}")
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise error(f"damaged key table: {exc}") from None
    if offset != size:
        raise error(
            f"{size - offset} trailing bytes after the key table's "
            f"{count} entries"
        )
    return keys
