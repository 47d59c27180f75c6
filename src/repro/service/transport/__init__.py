"""Zero-copy shared-memory data plane for the sharded service.

The process transport originally shipped every micro-batch through a
pickle-based ``multiprocessing.Queue``: each batch was pickled in the
parent's feeder thread, pushed through a pipe, and unpickled in the
worker — three copies and two object materialisations per batch, which
after the PR 3 batch kernels became the dominant end-to-end cost.

This package replaces that hop with per-shard **SPSC ring buffers**
backed by :mod:`multiprocessing.shared_memory`:

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

Control signals (STOP, checkpoints riding on outputs, fault plans)
stay on the existing queues; frames too large for the ring spill to
the queue behind an in-band marker so per-shard ordering is preserved.
Platforms without ``shared_memory`` or a ``fork`` start method fall
back to the original pickle-queue plane transparently under
``data_plane="auto"``.
"""

from __future__ import annotations

import multiprocessing

from repro.errors import ServiceError

#: The data planes the process transport can run on.  ``shm`` is the
#: zero-copy shared-memory plane; ``pickle`` is the original
#: pickled-``Queue`` transport kept as the universal fallback.
DATA_PLANES = ("auto", "shm", "pickle")


def shm_supported() -> bool:
    """Whether this platform can run the shared-memory data plane.

    Requires :mod:`multiprocessing.shared_memory` (Python 3.8+, and a
    platform that actually provides POSIX/Windows shared memory) and
    the ``fork`` start method — ring endpoints hold mmap'd segments
    that child processes inherit by address, which ``spawn`` cannot
    replicate without re-attaching by name.
    """
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - platform-dependent
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_data_plane(requested: str) -> str:
    """Resolve a requested plane to the one that will actually run.

    ``auto`` selects ``shm`` when the platform supports it and
    ``pickle`` otherwise; asking for ``shm`` explicitly on a platform
    without it is an error (tests and benchmarks want the failure to
    be loud, not a silent downgrade).
    """
    if requested not in DATA_PLANES:
        raise ServiceError(
            f"unknown data plane {requested!r}; expected one of "
            f"{DATA_PLANES}"
        )
    if requested == "auto":
        return "shm" if shm_supported() else "pickle"
    if requested == "shm" and not shm_supported():
        raise ServiceError(
            "data_plane='shm' requires multiprocessing.shared_memory "
            "and the fork start method; use 'auto' to fall back to "
            "the pickle queue plane on this platform"
        )
    return requested


from repro.service.transport.frame import (  # noqa: E402
    FrameKind,
    decode_frame,
    encode_batch_frame,
    encode_control_frame,
    encode_pickled_frame,
)
from repro.service.transport.ring import SpscRing  # noqa: E402
from repro.service.transport.shm import (  # noqa: E402
    ShardChannel,
    WorkerEndpoint,
)

__all__ = [
    "DATA_PLANES",
    "FrameKind",
    "ShardChannel",
    "SpscRing",
    "WorkerEndpoint",
    "decode_frame",
    "encode_batch_frame",
    "encode_control_frame",
    "encode_pickled_frame",
    "resolve_data_plane",
    "shm_supported",
]
