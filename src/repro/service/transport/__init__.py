"""Zero-copy shared-memory data plane for the sharded service.

Every process shard is fed through per-shard **SPSC ring buffers**
backed by :mod:`multiprocessing.shared_memory` — the only process data
plane, under both the ``fork`` and ``spawn`` start methods:

* :mod:`~repro.service.transport.frame` — the columnar frame codec.
  A numeric batch is encoded *once* into a flat frame (header + a
  contiguous native ``int64``/``float64`` value array; a global- or
  time-mode frame adds only its first position and stride, a per-key
  frame its position array and dictionary-encoded keys),
  CRC32-protected and sequence numbered.  Non-numeric payloads
  (string values, poison records, arbitrary objects) fall back to a
  pickled frame on the same ring,
  chosen per batch by a capability check, so ordering is never split
  across channels.
* :mod:`~repro.service.transport.ring` — the byte-level SPSC ring.
  One producer (the supervisor), one consumer (the shard worker),
  wait-free ``try_write``/``try_read`` with monotone cursors in the
  shared segment.
* :mod:`~repro.service.transport.shm` — the data plane proper:
  :class:`~repro.service.transport.shm.ShardChannel` (parent side,
  data ring + mirrored result ring) and
  :class:`~repro.service.transport.shm.WorkerEndpoint` (worker side),
  which maps frames straight off the ring and hands
  ``memoryview``-backed columns to the batch kernels with no copy and
  no unpickle.

The ring pair is a shard's only channel: a frame larger than half a
ring crosses as a run of pieces, and the worker acknowledges ``STOP``
on its result ring.
"""

from __future__ import annotations

from repro import _lazy_exports


def shm_supported() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` imports here.

    Where it does not, the process transport cannot run and the
    service refuses ``transport="process"``.
    """
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - platform-dependent
        return False
    return True


__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".frame": (
        "FrameKind",
        "decode_frame",
        "encode_batch_frame",
        "encode_control_frame",
        "encode_pickled_frame",
    ),
    ".ring": ("SpscRing",),
    ".shm": ("ShardChannel", "WorkerEndpoint"),
})
__all__.append("shm_supported")
