"""Worker lifecycle: spawning, backpressure, failure detection, recovery.

The supervisor owns one worker process per shard.  Everything it
exchanges with a worker — batches and the stop request out, outputs
and the stop acknowledgement back — travels as frames over the shard's
pair of shared-memory rings (:mod:`repro.service.transport`), its only
channel.  Both directions are bounded — a slow merger backpressures
the workers instead of growing an unbounded outbound backlog.  Workers
start with ``fork`` where the platform has it and ``spawn`` otherwise;
under ``spawn`` they attach to their rings by segment name.  Its
responsibilities:

* **Backpressure** — a shard with ``queue_capacity`` unacknowledged
  batches, or a full data ring, triggers the configured policy:
  ``block`` (lossless, waits for capacity), ``drop`` (sheds the
  batch's records, ships the empty frame so watermarks and sequence
  numbers stay intact), or ``sample`` (ships a deterministically
  thinned batch).  Dropped records are counted exactly, per shard.
* **At-least-once delivery with idempotent effects** — every shipped
  batch is retained until *two* worker checkpoint generations cover it;
  shard outputs double as acknowledgements.  What was actually shipped
  (post-shedding) is what is retained, so a replay reproduces
  byte-identical outputs.
* **Recovery** — a worker that exits without being asked to is
  respawned from its last checkpoint (or from scratch), its retained
  batches are re-enqueued in order, and the merge layer's idempotency
  absorbs any duplicate outputs.  Checkpoints are CRC32-verified before
  being trusted: a corrupt current generation falls back to the
  previous one (retention keeps exactly enough batches to replay from
  there); when both generations are corrupt the shard is failed rather
  than silently restarted with missing history.
* **Stall detection** — progress is what the supervisor can see move:
  the worker taking frames off the data ring, or outputs read off the
  result ring; a send to a shard with nothing outstanding restarts
  its clock.  A shard with outstanding work and no progress for longer
  than ``stall_timeout`` is wedged (as opposed to slow — a slow shard
  still finishes batches): its process is killed and recovered like a
  crash.
* **Restart budget** — each recovery consumes one unit of
  ``max_restarts`` and is preceded by an exponential backoff.  A shard
  that exhausts the budget becomes **failed**: its worker is torn
  down for good, the records it had not acknowledged — and any shipped
  to it later — are shed to the dead-letter queue, and the failure is
  reported upward (the service deals it no more frames and marks the
  shed records' keys degraded) instead of being retried forever.

Fault injection threads through the optional ``injector``
(:class:`~repro.service.chaos.FaultInjector`): kills after chosen
batches, kills at spawn, checkpoint bit-flips, send delays, and torn or
duplicated ring frames all fire from the hooks here.

:class:`InlineTransport` is the process-free twin used by fast
deterministic tests: same interface, shards run in the caller's
process.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.errors import (
    ServiceError,
    ShardFailedError,
    TornFrameError,
    TransportError,
)
from repro.metrics.stats import Reservoir
from repro.service.partition import (
    BACKPRESSURE_POLICIES,
    Batch,
    drop_records,
    thin_batch,
)
from repro.service.shard import (
    STOP,
    ShardConfig,
    ShardOutput,
    ShardState,
    shard_main,
)
from repro.service.transport import shm_supported
from repro.service.transport.frame import (
    FrameKind,
    decode_frame,
    encode_control_frame,
)
from repro.service.transport.shm import ShardChannel
from repro.stream.checkpoint import CheckpointError, verify
from repro.stream.sink import DeadLetter

#: Sleep between liveness checks while a send waits for ring space or
#: acknowledgements (rings drain in sub-millisecond strides).
_RING_WAIT_SLEEP = 0.001

#: Retained batch-latency samples per shard (reservoir capacity).
_LATENCY_SAMPLES = 1024

#: Upper bound on one exponential-backoff sleep before a respawn.
_BACKOFF_CAP = 2.0

#: Default per-ring capacity of the shm data plane, in bytes.
DEFAULT_RING_CAPACITY = 1 << 20


def _context():
    """The multiprocessing context: ``fork`` when available.

    Fork keeps worker startup cheap and lets non-picklable operators
    run (checkpointing still requires picklability); platforms without
    it (Windows) fall back to the default start method, ``spawn``.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _name_letters(batch: Batch, output: ShardOutput) -> None:
    """Fill in the keys of ``output``'s poison letters from ``batch``.

    A global- or time-mode shard never sees keys and names a poison
    record by position alone; the parent's copy of the batch holds its
    key at the same offset, so callers get the same letter on every
    transport.
    """
    index = batch.positions.index
    output.dead_letters = [
        replace(letter, key=batch.keys[index(letter.position)])
        for letter in output.dead_letters
    ]


def _transport_stats(
    data_plane: str, handles: List["WorkerHandle"]
) -> Dict[str, Any]:
    """A transport's data-plane accounting, summed over its shards."""
    return {
        "data_plane": data_plane,
        "frames_columnar": sum(h.frames_columnar for h in handles),
        "frames_pickled": sum(h.frames_pickled for h in handles),
        "frames_spilled": sum(h.frames_spilled for h in handles),
        "encode_seconds": sum(h.encode_seconds for h in handles),
        "ring_wait_seconds": sum(h.ring_wait_seconds for h in handles),
        "decode_seconds": sum(h.decode_seconds for h in handles),
    }


class WorkerHandle:
    """Bookkeeping for one shard worker."""

    def __init__(self, config: ShardConfig):
        self.config = config
        self.process: Optional[Any] = None
        #: Shared-memory ring pair (``None`` once discarded).
        self.channel: Optional[ShardChannel] = None
        #: Batches shipped but not yet covered by two checkpoint
        #: generations (the fallback generation must stay replayable).
        self.retained: List[Batch] = []
        self.snapshot: Optional[bytes] = None
        self.snapshot_seq = 0
        #: Previous checkpoint generation (last known good fallback).
        self.prev_snapshot: Optional[bytes] = None
        self.prev_snapshot_seq = 0
        self.acked_seq = 0
        #: Highest slice watermark the worker has acknowledged —
        #: monotone (shard outputs echo max(batch, state) watermarks),
        #: feeding the service's watermark-lag gauge.
        self.watermark = 0
        #: Highest batch sequence number shipped toward the worker.
        self.shipped_seq = 0
        self.stop_sent = False
        self.stopped = False
        #: The shard exhausted its restart budget (terminal).
        self.failed = False
        #: Human-readable reason the shard failed, when it did.
        self.failure_reason = ""
        #: The channel's :meth:`~ShardChannel.consumed` count when
        #: last looked at, and the monotonic time it last moved.
        self.progress = 0
        self.last_progress = time.monotonic()
        #: Ship timestamps per in-flight sequence number.
        self.enqueue_times: Dict[int, float] = {}
        # Stats accumulators (fresh acknowledgements only).
        self.records = 0
        self.batches = 0
        self.busy_seconds = 0.0
        self.checkpoints = 0
        self.restores = 0
        self.dropped = 0
        self.stalls = 0
        self.corrupt_checkpoints = 0
        # Transport accounting (zero on the inline transport).
        self.frames_columnar = 0
        self.frames_pickled = 0
        #: Data frames sent as more than one ring piece.
        self.frames_spilled = 0
        self.encode_seconds = 0.0
        self.ring_wait_seconds = 0.0
        self.decode_seconds = 0.0
        #: Bounded uniform sample of ship-to-ack latencies; seeded per
        #: shard so runs are reproducible.
        self.latencies = Reservoir(
            _LATENCY_SAMPLES, seed=config.shard_id
        )


class Supervisor:
    """Process transport: one worker per shard, with fault recovery.

    Args:
        configs: One :class:`ShardConfig` per shard, index-aligned.
        queue_capacity: Unacknowledged batches allowed in flight per
            shard; this is where backpressure originates.
        backpressure: ``"block"``, ``"drop"`` or ``"sample"``.
        injector: Optional fault injector (tests only); its hooks fire
            at spawn, ship, and checkpoint-absorb time.
        max_restarts: Recoveries allowed per shard before it is
            declared failed.  ``0`` fails a shard on its first crash.
        restart_backoff: Base of the exponential pre-respawn sleep
            (``restart_backoff * 2**(restores-1)``, capped); ``0``
            respawns immediately.
        stall_timeout: Seconds of worker silence (with work
            outstanding) before the worker is declared wedged and
            recovered; ``0`` disables stall detection.
        on_shard_failed: Callback ``(shard_id, reason)`` invoked once
            when a shard exhausts its budget (or loses both checkpoint
            generations).
        ring_capacity: Per-ring byte capacity; larger rings absorb
            deeper bursts before backpressure engages.

    Raises:
        ServiceError: for an invalid argument, or where
            :mod:`multiprocessing.shared_memory` is unavailable (run
            ``transport="inline"`` there).
    """

    def __init__(
        self,
        configs: List[ShardConfig],
        queue_capacity: int = 8,
        backpressure: str = "block",
        injector: Optional[Any] = None,
        max_restarts: int = 5,
        restart_backoff: float = 0.05,
        stall_timeout: float = 10.0,
        on_shard_failed: Optional[Callable[[int, str], None]] = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ):
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ServiceError(
                f"unknown backpressure policy {backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        if queue_capacity < 1:
            raise ServiceError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if max_restarts < 0:
            raise ServiceError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if ring_capacity < 64:
            raise ServiceError(
                f"ring_capacity must be >= 64 bytes, got {ring_capacity}"
            )
        if not shm_supported():
            raise ServiceError(
                "transport='process' needs multiprocessing.shared_memory, "
                "which this platform lacks; use transport='inline'"
            )
        self._ctx = _context()
        self._queue_capacity = queue_capacity
        self._ring_capacity = ring_capacity
        self._backpressure = backpressure
        self._injector = injector
        #: Optional ``(stage, seconds)`` callback the service binds for
        #: transport telemetry (stages: encode / ring_wait / decode).
        self.transport_observer: Optional[Callable[[str, float], None]] = None
        self._max_restarts = max_restarts
        self._restart_backoff = restart_backoff
        self._stall_timeout = stall_timeout
        self._on_shard_failed = on_shard_failed
        self._pending_outputs: List[ShardOutput] = []
        self._pending_letters: List[DeadLetter] = []
        self.handles = [WorkerHandle(config) for config in configs]
        for handle in self.handles:
            self._spawn(handle, initial_snapshot=None, replay=())

    # -- spawning and recovery -------------------------------------

    def _spawn(self, handle, initial_snapshot, replay) -> None:
        config = handle.config
        if self._injector is not None:
            config = self._injector.worker_config(config)
        # Fresh rings every (re)spawn: a crashed worker's rings may hold
        # a half-consumed frame and are never reused.
        handle.channel = ShardChannel(
            handle.config.shard_id, self._ring_capacity
        )
        handle.process = self._ctx.Process(
            target=shard_main,
            args=(config, handle.channel.endpoint(), initial_snapshot),
            daemon=True,
            name=f"repro-shard-{handle.config.shard_id}",
        )
        handle.process.start()
        handle.progress = 0
        handle.last_progress = time.monotonic()
        if self._injector is not None:
            self._injector.on_spawned(
                handle.process, handle.config.shard_id
            )
        for batch in replay:
            if handle.failed:  # budget exhausted mid-replay
                return
            self._send(handle, batch)
        if handle.stop_sent and not handle.failed:
            self._send(handle, STOP)

    def _recover(self, handle: WorkerHandle) -> None:
        """Respawn a dead worker from its checkpoint and replay.

        Consumes one unit of the restart budget; exhausting it (or
        losing both checkpoint generations to corruption) fails the
        shard instead of respawning.
        """
        self._drain(handle)  # salvage outputs already produced
        self._discard_channel(handle)
        if handle.restores >= self._max_restarts:
            self._fail(
                handle,
                f"restart budget of {self._max_restarts} exhausted",
            )
            return
        handle.restores += 1
        if self._restart_backoff:
            time.sleep(
                min(
                    self._restart_backoff * 2 ** (handle.restores - 1),
                    _BACKOFF_CAP,
                )
            )
        handle.enqueue_times.clear()
        initial_snapshot, complete = self._select_snapshot(handle)
        if not complete:
            self._fail(
                handle,
                "both checkpoint generations are corrupt; the batches "
                "needed to rebuild the shard state are gone",
            )
            return
        self._spawn(
            handle,
            initial_snapshot=initial_snapshot,
            replay=list(handle.retained),
        )

    def _select_snapshot(self, handle: WorkerHandle):
        """The newest trustworthy checkpoint generation for recovery.

        Returns ``(snapshot_bytes_or_None, complete)`` where
        ``complete`` says whether a fresh/fallback start plus the
        retained batches reconstructs the full shard history.  The
        current generation is CRC-verified first; a corrupt one falls
        back to the previous generation (retention keeps every batch
        after it, so the replay is complete).
        """
        if handle.snapshot is None:
            return None, True  # never checkpointed: replay covers all
        try:
            verify(handle.snapshot)
            return handle.snapshot, True
        except CheckpointError:
            handle.corrupt_checkpoints += 1
        if handle.prev_snapshot is None:
            # The only generation was corrupt, but it was the *first*
            # checkpoint: retention still reaches back to genesis.
            return None, handle.prev_snapshot_seq == 0
        try:
            verify(handle.prev_snapshot)
            return handle.prev_snapshot, True
        except CheckpointError:
            handle.corrupt_checkpoints += 1
        return None, False

    def _fail(self, handle: WorkerHandle, reason: str) -> None:
        """Give up on a shard: tear it down and shed its backlog."""
        if handle.failed:
            return
        handle.failed = True
        handle.stopped = True
        handle.failure_reason = reason
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        self._discard_channel(handle)
        # Un-acknowledged records will never be processed: quarantine
        # them so accounting stays exact and callers can inspect them.
        for batch in handle.retained:
            if batch.seq <= handle.acked_seq:
                continue
            self._shed_batch(handle, batch)
        handle.retained = []
        handle.enqueue_times.clear()
        if self._on_shard_failed is not None:
            self._on_shard_failed(handle.config.shard_id, reason)

    def _shed_batch(self, handle: WorkerHandle, batch: Batch) -> None:
        """Dead-letter a batch of a failed shard, record by record."""
        reason = repr(
            ShardFailedError(
                f"shard {handle.config.shard_id} failed: "
                f"{handle.failure_reason}"
            )
        )
        self._pending_letters.extend(
            DeadLetter(
                key=key,
                value=value,
                position=position,
                shard_id=handle.config.shard_id,
                error=reason,
            )
            for position, key, value in zip(
                batch.positions, batch.keys, batch.values
            )
        )

    def _discard_channel(self, handle: WorkerHandle) -> None:
        channel = handle.channel
        if channel is not None:
            handle.channel = None
            channel.close()
            channel.unlink()

    def _check(self, handle: WorkerHandle) -> None:
        """Recover ``handle`` if its process died or wedged."""
        process = handle.process
        if handle.stopped or process is None:
            return
        if not process.is_alive():
            if handle.stop_sent and process.exitcode == 0:
                # Clean exit; its STOP echo may still be on the ring.
                return
            self._recover(handle)
            return
        if self._stall_timeout and self._expecting_progress(handle):
            progress = handle.channel.consumed()
            now = time.monotonic()
            if progress != handle.progress:
                handle.progress = progress
                handle.last_progress = now
            elif now - handle.last_progress > self._stall_timeout:
                # Alive, with work outstanding, and neither ring has
                # moved within the timeout: wedged, not slow.
                handle.stalls += 1
                if self._injector is not None:
                    self._injector.on_stall_killed(
                        handle.config.shard_id
                    )
                process.kill()
                process.join(timeout=5.0)
                self._recover(handle)

    def _expecting_progress(self, handle: WorkerHandle) -> bool:
        """Whether silence from this worker indicates a problem."""
        return handle.shipped_seq > handle.acked_seq or (
            handle.stop_sent and not handle.stopped
        )

    # -- shipping with backpressure --------------------------------

    def _encode_batch(self, handle: WorkerHandle, batch: Batch) -> bytes:
        """Encode one batch on the handle's channel, with accounting."""
        started = time.perf_counter()
        channel = handle.channel
        frame, columnar = channel.encode_batch(
            batch, handle.config.mode == "per_key"
        )
        elapsed = time.perf_counter() - started
        handle.encode_seconds += elapsed
        if columnar:
            handle.frames_columnar += 1
        else:
            handle.frames_pickled += 1
        if len(frame) > channel.data_ring.max_piece:
            handle.frames_spilled += 1
        if self.transport_observer is not None:
            self.transport_observer("encode", elapsed)
        return frame

    def _data_frames(self, handle: WorkerHandle, frame: bytes) -> List[bytes]:
        """The ring frames to write for one encoded batch frame.

        Normally ``[frame]``; the fault injector's torn-write and
        stale-sequence schedules substitute corrupted or duplicated
        frames here.
        """
        if self._injector is None:
            return [frame]
        return self._injector.on_data_frame(handle.config.shard_id, frame)

    def _wait(
        self,
        handle: WorkerHandle,
        channel: ShardChannel,
        ready: Callable[[], bool],
    ) -> bool:
        """Block until ``ready()``; ``False`` if ``channel`` went first.

        Every round drains the worker's outputs — its acknowledgements
        free in-flight slots, and with both directions bounded a
        supervisor that stopped draining could deadlock against a
        worker blocked on its result ring — and recovers a dead
        worker.  Gives up once recovery has replaced ``channel`` or the
        shard failed.  The time waited is charged to ``ring_wait``.
        """
        if ready():
            return True
        started = time.perf_counter()
        while True:
            self._drain(handle)
            self._check(handle)
            if handle.failed or handle.channel is not channel:
                return False
            if ready():
                break
            time.sleep(_RING_WAIT_SLEEP)
        waited = time.perf_counter() - started
        handle.ring_wait_seconds += waited
        if self.transport_observer is not None:
            self.transport_observer("ring_wait", waited)
        return True

    def _send(
        self,
        handle: WorkerHandle,
        message: Any,
        frame: Optional[bytes] = None,
    ) -> None:
        """Blocking send of a batch or :data:`STOP` over the data ring.

        A batch first waits for its in-flight slot (see
        :meth:`_try_ship`), then for ring space, piece by piece when
        its frame (``frame``, if the caller already encoded it) is
        larger than one ring piece.  When recovery replaces the rings
        mid-send, the send starts over on the fresh ones; when the
        shard fails, a batch is dead-lettered instead.
        """
        shard_id = handle.config.shard_id
        if self._injector is not None:
            delay = self._injector.put_delay(shard_id)
            if delay:
                time.sleep(delay)
        queue_capacity = self._queue_capacity
        while not handle.failed:
            channel = handle.channel
            ring = channel.data_ring
            if not isinstance(message, Batch):
                frames = [encode_control_frame(FrameKind.STOP, shard_id)]
            else:
                if not self._wait(
                    handle,
                    channel,
                    lambda: message.seq - handle.acked_seq <= queue_capacity,
                ):
                    continue
                if frame is None:
                    frame = self._encode_batch(handle, message)
                frames = self._data_frames(handle, frame)
            if all(
                self._wait(handle, channel, partial(ring.try_write, each))
                for each in frames
            ):
                return
        if isinstance(message, Batch):
            self._shed_batch(handle, message)

    def _try_ship(self, handle: WorkerHandle, batch: Batch) -> bool:
        """Non-blocking delivery; ``False`` signals backpressure."""
        if self._injector is not None and self._injector.has_data_frame_fault(
            handle.config.shard_id
        ):
            # A torn/stale frame is scheduled for this shard: take the
            # blocking writer so the injected frame group lands (and
            # survives any recovery it provokes) atomically.
            self._send(handle, batch)
            return True
        # ``queue_capacity`` bounds in-flight *batches* per shard — the
        # ring's byte capacity alone would let a fast producer run
        # thousands of batches ahead of a slow worker, which is exactly
        # the situation the drop/sample policies exist to surface.  The
        # bound is phrased per-seq (ship N only once N - capacity is
        # acked) so replayed batches at or below the ack horizon always
        # pass.
        self._drain(handle)
        if batch.seq - handle.acked_seq > self._queue_capacity:
            return False
        ring = handle.channel.data_ring
        frame = self._encode_batch(handle, batch)
        if len(frame) > ring.max_piece:
            # A frame of several pieces takes the blocking writer: once
            # its first piece is out the rest must follow, and shedding
            # a batch for being large (rather than for the worker being
            # behind) is not what drop/sample mean.
            self._send(handle, batch, frame)
            return True
        return ring.try_write(frame)

    def ship(self, batch: Batch) -> None:
        """Deliver one batch under the configured backpressure policy."""
        handle = self.handles[batch.shard]
        if handle.failed:
            self._shed_batch(handle, batch)
            return
        if not self._expecting_progress(handle):
            # The shard was idle: its silence so far was not a stall.
            handle.last_progress = time.monotonic()
        if not self._try_ship(handle, batch):
            if self._backpressure == "drop":
                batch, dropped = drop_records(batch)
                handle.dropped += dropped
            elif self._backpressure == "sample":
                batch, dropped = thin_batch(batch)
                handle.dropped += dropped
            self._send(handle, batch)
        if handle.failed:
            return
        # Retain exactly what was shipped so replays are identical.
        handle.retained.append(batch)
        handle.shipped_seq = max(handle.shipped_seq, batch.seq)
        handle.enqueue_times[batch.seq] = time.perf_counter()
        if self._injector is not None:
            self._injector.on_shipped(
                handle.process, batch.shard, batch.seq
            )

    # -- draining outputs ------------------------------------------

    def _absorb(self, handle: WorkerHandle, output: ShardOutput) -> None:
        if output.dead_letters:
            # Before a checkpoint below trims the batch from retention.
            for batch in handle.retained:
                if batch.seq == output.seq:
                    _name_letters(batch, output)
                    break
        self._pending_outputs.append(output)
        if output.watermark > handle.watermark:
            handle.watermark = output.watermark
        if output.seq > handle.acked_seq:
            handle.acked_seq = output.seq
            handle.records += output.records
            handle.batches += 1
            handle.busy_seconds += output.busy_seconds
            decode_seconds = output.transport_seconds
            if decode_seconds:
                handle.decode_seconds += decode_seconds
                if self.transport_observer is not None:
                    self.transport_observer("decode", decode_seconds)
            shipped_at = handle.enqueue_times.pop(output.seq, None)
            if shipped_at is not None:
                handle.latencies.add(
                    time.perf_counter() - shipped_at
                )
        if output.snapshot is not None and output.seq > handle.snapshot_seq:
            data = output.snapshot
            if self._injector is not None:
                data = self._injector.on_checkpoint(
                    handle.config.shard_id, data
                )
            handle.prev_snapshot = handle.snapshot
            handle.prev_snapshot_seq = handle.snapshot_seq
            handle.snapshot = data
            handle.snapshot_seq = output.seq
            handle.checkpoints += 1
            # Keep one extra generation of batches: if the new
            # checkpoint turns out corrupt, the previous one plus
            # these batches still reconstructs the full history.
            handle.retained = [
                b
                for b in handle.retained
                if b.seq > handle.prev_snapshot_seq
            ]
            output.snapshot = None  # merged layers never need the bytes

    def _drain(self, handle: WorkerHandle) -> None:
        """Absorb every output currently on the shard's result ring.

        The worker's ``STOP`` echo, behind its last output, marks it
        stopped.  A torn frame here means the worker died mid-write:
        draining stops (the rest of the ring cannot be trusted) and
        the regular liveness check recovers the shard with fresh rings.
        """
        channel = handle.channel
        if channel is None:
            return
        ring = channel.result_ring
        while True:
            try:
                view = ring.try_read()
            except TransportError:
                # Torn record, or a frame left uncommitted by an
                # earlier torn decode: the ring is done for.
                return
            if view is None:
                return
            try:
                decoded = decode_frame(view)
            except TornFrameError:
                # Leave the frame uncommitted; the ring is discarded
                # wholesale when the worker is recovered.
                return
            payload = decoded.payload
            ring.commit()
            if decoded.kind is FrameKind.STOP:
                handle.stopped = True
                return
            self._absorb(handle, payload)

    def poll(self) -> List[ShardOutput]:
        """Drain worker outputs, recovering any dead workers en route."""
        for handle in self.handles:
            self._drain(handle)
            self._check(handle)
        outputs = self._pending_outputs
        self._pending_outputs = []
        return outputs

    def take_dead_letters(self) -> List[DeadLetter]:
        """Dead letters quarantined by the supervisor since last taken.

        These cover records shed because their shard failed; poison
        records travel on :attr:`ShardOutput.dead_letters` instead.
        """
        letters = self._pending_letters
        self._pending_letters = []
        return letters

    # -- transport introspection -------------------------------------

    def ring_occupancy(self) -> List[float]:
        """Per-shard ring occupancy as a capacity fraction.

        The fuller of a shard's two rings; ``0.0`` for discarded
        channels.
        """
        return [
            handle.channel.occupancy_ratio()
            if handle.channel is not None
            else 0.0
            for handle in self.handles
        ]

    def transport_stats(self) -> Dict[str, Any]:
        """Aggregate data-plane accounting across every shard."""
        return _transport_stats("shm", self.handles)

    # -- shutdown ---------------------------------------------------

    def stop(self) -> None:
        """Ask every worker to finish its ring and exit."""
        for handle in self.handles:
            if not handle.stop_sent:
                if not self._expecting_progress(handle):
                    handle.last_progress = time.monotonic()
                handle.stop_sent = True
                if not handle.failed:
                    self._send(handle, STOP)

    def drain_until_stopped(self, timeout: float = 60.0) -> List[ShardOutput]:
        """Collect outputs until every worker confirmed its stop.

        Failed shards count as stopped (their backlog has been shed to
        the dead-letter queue), so one failed shard never blocks the
        rest of the service from draining.

        Raises:
            ServiceError: when a worker fails to stop within
                ``timeout`` seconds (after recoveries).
        """
        deadline = time.monotonic() + timeout
        outputs: List[ShardOutput] = []
        while True:
            outputs.extend(self.poll())
            if all(handle.stopped for handle in self.handles):
                break
            if time.monotonic() > deadline:
                raise ServiceError(
                    "shard workers did not stop within "
                    f"{timeout} seconds"
                )
            time.sleep(0.002)
        for handle in self.handles:
            process = handle.process
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - stuck
                    process.terminate()
                    process.join(timeout=5.0)
            self._discard_channel(handle)
        return outputs

    def terminate(self) -> None:
        """Hard-kill every worker (abandoning in-flight work)."""
        for handle in self.handles:
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            self._discard_channel(handle)
            handle.stopped = True


class InlineTransport:
    """Run every shard synchronously in the caller's process.

    The deterministic twin of :class:`Supervisor` used by property
    tests and debugging: identical interface and identical results for
    the partition/merge math, with no rings, processes, checkpoints or
    backpressure (nothing is ever dropped, no shard can crash — though
    poison records are still quarantined by the shard computation
    itself).
    """

    def __init__(self, configs: List[ShardConfig], backpressure: str):
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ServiceError(
                f"unknown backpressure policy {backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        self.transport_observer: Optional[
            Callable[[str, float], None]
        ] = None
        self.handles = [WorkerHandle(config) for config in configs]
        self._states = [ShardState(config) for config in configs]
        self._pending: List[ShardOutput] = []

    def ship(self, batch: Batch) -> None:
        """Process one batch immediately."""
        handle = self.handles[batch.shard]
        started = time.perf_counter()
        output = self._states[batch.shard].process(batch)
        output.busy_seconds = time.perf_counter() - started
        if output.dead_letters:
            _name_letters(batch, output)
        handle.acked_seq = output.seq
        if output.watermark > handle.watermark:
            handle.watermark = output.watermark
        handle.records += output.records
        handle.batches += 1
        handle.busy_seconds += output.busy_seconds
        self._pending.append(output)

    def poll(self) -> List[ShardOutput]:
        """Return outputs produced since the last poll."""
        outputs = self._pending
        self._pending = []
        return outputs

    def take_dead_letters(self) -> List[DeadLetter]:
        """Always empty: inline shards cannot fail, only quarantine."""
        return []

    def ring_occupancy(self) -> List[float]:
        """Always zero: the inline transport has no rings."""
        return [0.0] * len(self.handles)

    def transport_stats(self) -> Dict[str, Any]:
        """Zeroed accounting (no process transport in play)."""
        return _transport_stats("inline", self.handles)

    def stop(self) -> None:
        """Mark every (synchronous) shard as stopped."""
        for handle in self.handles:
            handle.stop_sent = True
            handle.stopped = True

    def drain_until_stopped(self, timeout: float = 60.0) -> List[ShardOutput]:
        """Return any remaining outputs (always already complete)."""
        return self.poll()

    def terminate(self) -> None:
        """No processes to kill; marks shards stopped."""
        self.stop()
