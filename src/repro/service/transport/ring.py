"""Byte-level SPSC ring buffer over ``multiprocessing.shared_memory``.

One :class:`SpscRing` connects exactly one producer process to exactly
one consumer process.  The shared segment holds two 8-byte cursors
followed by the data region::

    offset 0   head  (u64, native order) — total bytes ever published
    offset 8   tail  (u64, native order) — total bytes ever consumed
    offset 16  data  (``capacity`` bytes, used modulo ``capacity``)

Cursors are *absolute* monotone counters, not wrapped offsets: the
occupied byte count is always ``head - tail`` with no ambiguity between
empty and full, and a stuck cursor is visible in stats as a frozen
number rather than a plausible-looking small offset.  Each side writes
only its own cursor, so no locks are needed.  What that relies on: both
cursors are stored and loaded through one ``memoryview.cast("Q")`` of
the control area, where ``view[i] = value`` is a single aligned 8-byte
copy that the other process sees either whole or not at all.
``struct.pack_into`` must not be used for them — it zero-fills its
target bytes before packing, so the consumer could read a transient
``head == 0`` and report the record at ``tail`` as torn.  Payload bytes
precede the head store in program order and no fence is issued: that
is enough under x86-64's store ordering, the only architecture this
ring has been exercised on.

Records are length-prefixed: ``u32 length`` then ``length`` payload
bytes.  A record never wraps — when the contiguous space to the end of
the data region cannot hold the prefix + payload, the producer writes a
**wrap marker** (``0xFFFFFFFF`` length, or implicitly when fewer than 4
contiguous bytes remain) and restarts at offset 0; the consumer skips
the marker the same way.  This keeps every payload contiguous, which is
what lets the consumer hand out zero-copy ``memoryview`` slices of the
segment instead of reassembling split records.

The consumer protocol is read-then-commit: :meth:`try_read` returns a
``memoryview`` of the payload *without* advancing ``tail``; the caller
processes the frame and then calls :meth:`commit`.  A consumer killed
mid-frame therefore leaves the frame on the ring, where the recovering
supervisor can see (via :meth:`occupancy`) that data was in flight.

A ring pickles as its segment name: the unpickled copy attaches to the
same segment, which is how a worker started with ``spawn`` reaches the
rings its parent created (under ``fork`` the mapping is inherited).
"""

from __future__ import annotations

import struct
from typing import Optional

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - platform-dependent
    shared_memory = None

from repro.errors import TornFrameError, TransportError

#: Bytes of control area before the data region (head + tail cursors).
_CONTROL_BYTES = 16

#: Length-prefix marker meaning "skip to the start of the data region".
_WRAP_MARKER = 0xFFFFFFFF

_U32 = struct.Struct("<I")

#: Slots of the two cursors in the control area's ``cast("Q")`` view.
_HEAD, _TAIL = 0, 1


class SpscRing:
    """Single-producer single-consumer byte ring in shared memory.

    Args:
        capacity: Size of the data region in bytes.  The largest
            writable payload is ``capacity - 8`` (length prefix plus a
            possible wrap marker); larger payloads must take the
            caller's spill path.
        name: Attach to an existing segment by name instead of
            creating one (what unpickling a ring does).

    The creating side owns the segment: call :meth:`unlink` exactly
    once (from the creator) after both sides have :meth:`close`-d; an
    attached copy's :meth:`unlink` leaves the segment alive.
    """

    def __init__(self, capacity: int = 1 << 20, name: Optional[str] = None):
        if capacity < 64:
            raise TransportError(
                f"ring capacity must be at least 64 bytes, got {capacity}"
            )
        if name is None:
            self._shm = shared_memory.SharedMemory(
                create=True, size=_CONTROL_BYTES + capacity
            )
            self._owner = True
            # Fresh POSIX shm is zero-filled, but be explicit: cursors
            # must start equal or the first read sees garbage.
            self._shm.buf[:_CONTROL_BYTES] = bytes(_CONTROL_BYTES)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False
        self.capacity = capacity
        self.name = self._shm.name
        self._buf = self._shm.buf
        self._cursors = self._buf[:_CONTROL_BYTES].cast("Q")
        self._data = self._buf[_CONTROL_BYTES : _CONTROL_BYTES + capacity]
        #: Pending (payload view, new tail) from an uncommitted read.
        self._pending: Optional[tuple] = None
        self._closed = False

    def occupancy(self) -> int:
        """Bytes currently published but not yet consumed."""
        cursors = self._cursors
        return cursors[_HEAD] - cursors[_TAIL]

    def occupancy_ratio(self) -> float:
        """Occupancy as a fraction of capacity (gauge-friendly)."""
        return self.occupancy() / self.capacity

    @property
    def max_payload(self) -> int:
        """Largest payload :meth:`try_write` can ever accept."""
        return self.capacity - 8

    # -- producer side ----------------------------------------------

    def try_write(self, payload: bytes) -> bool:
        """Publish one record; ``False`` if the ring lacks space now.

        Never blocks.  The payload bytes are written *before* the head
        cursor is published, so a concurrent consumer can never see a
        half-written record — a producer killed between the two steps
        simply leaves unpublished bytes that the next write overwrites.
        """
        need = 4 + len(payload)
        if need > self.capacity - 4:
            # Reserve 4 bytes so a wrap marker always fits; callers
            # spill payloads this large through the queue path.
            raise TransportError(
                f"payload of {len(payload)} bytes exceeds ring capacity "
                f"{self.capacity} (max payload {self.max_payload})"
            )
        head = self._cursors[_HEAD]
        tail = self._cursors[_TAIL]
        offset = head % self.capacity
        contiguous = self.capacity - offset
        pad = contiguous if contiguous < need else 0
        if (head - tail) + pad + need > self.capacity:
            return False
        if pad:
            if contiguous >= 4:
                _U32.pack_into(self._data, offset, _WRAP_MARKER)
            head += pad
            offset = 0
        _U32.pack_into(self._data, offset, len(payload))
        self._data[offset + 4 : offset + 4 + len(payload)] = payload
        self._cursors[_HEAD] = head + need
        return True

    # -- consumer side ----------------------------------------------

    def try_read(self) -> Optional[memoryview]:
        """Peek the next record as a zero-copy view; ``None`` if empty.

        The returned ``memoryview`` aliases the shared segment and is
        valid only until :meth:`commit`; callers must finish with it
        (and release any sub-views) before committing.  Reading again
        before committing is a protocol violation.
        """
        if self._pending is not None:
            raise TransportError(
                "try_read called with an uncommitted frame pending"
            )
        head = self._cursors[_HEAD]
        tail = self._cursors[_TAIL]
        while True:
            if head == tail:
                return None
            offset = tail % self.capacity
            contiguous = self.capacity - offset
            if contiguous < 4:
                tail += contiguous
                continue
            length = _U32.unpack_from(self._data, offset)[0]
            if length == _WRAP_MARKER:
                tail += contiguous
                continue
            break
        if length > self.max_payload or 4 + length > head - tail:
            raise TornFrameError(
                f"ring record declares {length} bytes but only "
                f"{head - tail} are published (capacity {self.capacity})"
            )
        view = self._data[offset + 4 : offset + 4 + length]
        self._pending = (view, tail + 4 + length)
        return view

    def commit(self) -> None:
        """Consume the record returned by the last :meth:`try_read`."""
        if self._pending is None:
            raise TransportError("commit called with no frame pending")
        view, new_tail = self._pending
        self._pending = None
        view.release()
        self._cursors[_TAIL] = new_tail

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (leaves the segment alive)."""
        if self._closed:
            return
        self._closed = True
        if self._pending is not None:
            self._pending[0].release()
            self._pending = None
        try:
            self._cursors.release()
            self._data.release()
            self._buf = None
            self._cursors = None
            self._data = None
            self._shm.close()
        except BufferError:  # pragma: no cover - exported view leaked
            # A caller kept a sub-view alive; leave the mapping to the
            # process's exit rather than crash the shutdown path.
            pass

    def unlink(self) -> None:
        """Destroy the underlying segment (creator side, after close)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass

    def __reduce__(self):
        return (SpscRing, (self.capacity, self.name))
