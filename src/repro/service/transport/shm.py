"""Parent/worker endpoints of the shared-memory data plane.

:class:`ShardChannel` lives in the supervisor: it owns one shard's pair
of rings (data toward the worker, results back).
:class:`WorkerEndpoint` is the worker-side view of the same segments:
inherited through ``fork``, or re-attached by segment name when the
worker starts with ``spawn`` (an endpoint pickles as its rings' names).

Ordering is the invariant both sides protect.  Everything a shard must
see in order — batches, the stop request, spilled payloads — travels
through (or is *anchored* in) the data ring:

* a batch that encodes columnar or pickles small enough rides the ring
  directly;
* a payload too large for the ring goes on the spill queue, with a
  ``SPILL`` marker frame in the ring holding its place — the worker
  consumes one queue item when it reaches the marker;
* ``STOP`` is a control frame in the ring, so it cannot overtake
  the batches shipped before it.

Results mirror the scheme on the result ring (``OUTPUT`` frames,
``SPILL`` markers for oversized outputs).  Heartbeats and the final
:class:`~repro.service.shard.ShardStopped` notice stay on the out
queue: they are liveness metadata, not ordered data.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import replace
from typing import Any, Optional, Tuple

from repro.service.partition import Batch
from repro.service.shard import STOP, ShardHeartbeat
from repro.service.transport.frame import (
    DecodedFrame,
    FrameKind,
    decode_frame,
    encode_batch_frame,
    encode_control_frame,
    encode_pickled_frame,
)
from repro.service.transport.ring import SpscRing

#: Ceiling of the adaptive poll sleep while a ring is empty/full.  The
#: loops start by yielding (``sleep(0)``) and back off toward this, so
#: a busy pipeline polls hot and an idle one stays cheap.
_POLL_SLEEP_MAX = 0.002

#: Poll-sleep increment per empty iteration.
_POLL_SLEEP_STEP = 0.0002


class _AdaptivePause:
    """Backoff helper for ring poll loops: yield first, then sleep."""

    __slots__ = ("_pause",)

    def __init__(self) -> None:
        self._pause = 0.0

    def wait(self) -> None:
        time.sleep(self._pause)
        if self._pause < _POLL_SLEEP_MAX:
            self._pause = min(
                self._pause + _POLL_SLEEP_STEP, _POLL_SLEEP_MAX
            )

    def reset(self) -> None:
        self._pause = 0.0


class ShardChannel:
    """Supervisor-side ring pair for one shard.

    Transport counters live on the supervisor's ``WorkerHandle``, not
    here: channels are torn down and rebuilt on worker recovery, and
    the counters must survive that.
    """

    def __init__(self, shard_id: int, ring_capacity: int):
        self.shard_id = shard_id
        self.data_ring = SpscRing(ring_capacity)
        self.result_ring = SpscRing(ring_capacity)

    def encode_batch(
        self, batch: Batch, keyed: bool = True
    ) -> Tuple[bytes, bool]:
        """Encode one batch; returns ``(frame, columnar)``.

        Columnar when the value column passes the capability check,
        otherwise a CRC-protected pickled frame on the same ring (the
        per-batch fallback that keeps ArgMax keys, poison records, and
        arbitrary payloads working with unchanged ordering).  Unless
        ``keyed`` (per-key mode), neither frame carries the keys: the
        parent keeps them in its retained batch.
        """
        keys = batch.keys if keyed else None
        frame = encode_batch_frame(
            batch.shard,
            batch.seq,
            batch.watermark,
            batch.positions,
            keys,
            batch.values,
            batch.traces,
            batch.timestamps,
        )
        if frame is None:
            payload = batch if keyed else replace(batch, keys=None)
            return (
                encode_pickled_frame(
                    FrameKind.PICKLED, batch.shard, batch.seq, payload
                ),
                False,
            )
        return frame, True

    def endpoint(self) -> "WorkerEndpoint":
        """The worker-side view of these rings (a worker process arg)."""
        return WorkerEndpoint(
            self.shard_id, self.data_ring, self.result_ring
        )

    def occupancy_ratio(self) -> float:
        """Fuller of the two rings, as a fraction of capacity."""
        return max(
            self.data_ring.occupancy_ratio(),
            self.result_ring.occupancy_ratio(),
        )

    def close(self) -> None:
        """Close this process's mapping of both rings."""
        self.data_ring.close()
        self.result_ring.close()

    def unlink(self) -> None:
        """Free the shared-memory segments (owner side, once)."""
        self.data_ring.unlink()
        self.result_ring.unlink()


class WorkerEndpoint:
    """Worker-side receive/send loop helpers over one shard's rings.

    Pickles as its shard id and rings, so the copy a ``spawn`` worker
    unpickles attaches to the same segments; the worker must
    :meth:`close` it before exiting.
    """

    def __init__(
        self, shard_id: int, data_ring: SpscRing, result_ring: SpscRing
    ):
        self.shard_id = shard_id
        self.data_ring = data_ring
        self.result_ring = result_ring
        #: Time spent validating + decoding inbound frames (shipped
        #: back to the parent on each output's ``transport_seconds``).
        self.decode_seconds = 0.0
        self._decoded: Optional[DecodedFrame] = None

    # -- inbound -----------------------------------------------------

    def receive(self, in_queue: Any, timeout: Optional[float]) -> Any:
        """Next in-order message: a :class:`Batch` or :data:`STOP`.

        Blocks up to ``timeout`` seconds (``None`` blocks forever) and
        raises :class:`queue.Empty` on expiry so the caller can send
        its idle heartbeat.  A columnar batch is returned with a ``memoryview``-backed value
        column (and position column, unless ranged) aliasing the ring;
        the caller must finish with them and call :meth:`commit`
        before the next receive.

        Raises:
            TornFrameError: The ring held a corrupt frame.  The caller
                exits nonzero; the supervisor recovers the shard with
                fresh rings and a checkpoint replay.
        """
        ring = self.data_ring
        pause = _AdaptivePause()
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            view = ring.try_read()
            if view is None:
                if deadline is not None and time.monotonic() >= deadline:
                    raise queue_module.Empty
                pause.wait()
                continue
            started = time.perf_counter()
            decoded = decode_frame(view)
            self.decode_seconds += time.perf_counter() - started
            kind = decoded.kind
            if kind is FrameKind.STOP:
                ring.commit()
                return STOP
            if kind is FrameKind.SPILL:
                # The payload was too big for the ring: it travels on
                # the queue, the marker holds its place in the order.
                ring.commit()
                return in_queue.get()
            if kind is FrameKind.PICKLED:
                payload = decoded.payload
                ring.commit()
                return payload
            # COLUMNAR: hand out zero-copy views; commit is deferred
            # until the caller has processed them.
            batch = Batch(
                decoded.shard,
                decoded.seq,
                decoded.watermark or 0,
                decoded.positions,
                decoded.keys,
                decoded.values,
                decoded.traces,
                decoded.timestamps,
            )
            self._decoded = decoded
            return batch

    def commit(self) -> None:
        """Release any deferred columnar views and consume the frame."""
        if self._decoded is None:
            return
        self._decoded.release()
        self._decoded = None
        self.data_ring.commit()

    def take_decode_seconds(self) -> float:
        """Drain the decode-time accumulator (per-output reporting)."""
        seconds = self.decode_seconds
        self.decode_seconds = 0.0
        return seconds

    # -- outbound ----------------------------------------------------

    def send_output(
        self,
        output: Any,
        out_queue: Any,
        heartbeat_interval: float = 0.25,
    ) -> None:
        """Ship one :class:`ShardOutput` back on the result ring.

        Oversized outputs spill to the out queue behind a ``SPILL``
        marker, exactly mirroring the inbound scheme.  While the
        result ring is full this blocks (the supervisor drains it both
        at poll time and while it waits for data-ring space, so the
        wait is bounded), dropping an occasional heartbeat on the out
        queue so stall detection keeps seeing a live worker.
        """
        frame = encode_pickled_frame(
            FrameKind.OUTPUT, self.shard_id, output.seq, output
        )
        ring = self.result_ring
        if len(frame) > ring.max_payload:
            out_queue.put(output)
            frame = encode_control_frame(
                FrameKind.SPILL, self.shard_id, output.seq
            )
        pause = _AdaptivePause()
        last_beat = time.monotonic()
        while not ring.try_write(frame):
            pause.wait()
            if (
                heartbeat_interval
                and time.monotonic() - last_beat >= heartbeat_interval
            ):
                last_beat = time.monotonic()
                try:
                    out_queue.put_nowait(
                        ShardHeartbeat(
                            self.shard_id, output.seq, busy=False
                        )
                    )
                except queue_module.Full:
                    pass

    def close(self) -> None:
        """Release any deferred views and close the ring mappings."""
        if self._decoded is not None:
            self._decoded.release()
            self._decoded = None
        self.data_ring.close()
        self.result_ring.close()

    def __reduce__(self):
        return (
            WorkerEndpoint,
            (self.shard_id, self.data_ring, self.result_ring),
        )
