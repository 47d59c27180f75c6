"""Shard worker: the per-partition computation and its process loop.

A shard runs one of two pipelines over the records it is sent:

* **global and time mode** — a frame in, its slice pieces out.  Each
  frame is a contiguous run of stream positions whose keys the shard
  never sees; every same-slice run of it folds from the identity into
  one *piece* (the shard-local half of the engine's partial
  aggregation), keyed by its slice — of its global position, or in
  ``"time"`` mode of its event timestamp — and its first position.
  Open slices ship too, so the shard keeps nothing between frames; the
  parent's merger combines a slice's pieces in position order and
  drives the shared SlickDeque final aggregation.
* **per-key mode** — the records of the keys hashed to it, one full
  :class:`~repro.stream.engine.StreamEngine` pipeline per key (shared
  SlickDeque plan each), emitting exact per-key answers for any
  operator the engine runs.

Failure hardening lives at the record level: a value that raises inside
the operator (a *poison record*) is caught per record, quarantined as a
:class:`~repro.stream.sink.DeadLetter` on the batch's output, and never
kills the worker.  A poisoned run's piece folds its clean records only;
per-key mode pre-checks ``lift`` before feeding the key's engine, and
if the engine itself raises mid-feed the key is marked *degraded* (its
engine state can no longer be trusted) and subsequent records for it
are quarantined too.

:class:`ShardState` is a plain picklable object.  In per-key mode it
holds the key engines, which :mod:`repro.stream.checkpoint` snapshots
so the supervisor can restore a killed worker and replay its
un-checkpointed batches; a global- or time-mode worker is simply
replaced and sent the frames it had not acknowledged.
:func:`shard_main` is the process entry point wrapping that state in a
loop over the shard's two shared-memory rings, its only channel to the
supervisor: batches and ``STOP`` in, one output per batch and a
``STOP`` acknowledgement out.  The supervisor tells a slow worker from
a wedged one by the rings moving, so the worker sends nothing just to
look alive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import PoisonRecordError, ServiceError
from repro.kernels import kernel_for
from repro.operators.base import Agg, AggregateOperator
from repro.service.partition import Batch
from repro.service.slices import SliceClock
from repro.stream.checkpoint import restore, snapshot
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink, DeadLetter
from repro.stream.watermark import TimeSliceClock
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query

#: Execution modes a shard can run.  ``time`` is event-time global
#: mode: records carry timestamps, partials accumulate per *time*
#: slice, and the watermark counts closed time slices.
SHARD_MODES = ("global", "per_key", "time")

#: What a shard does with a poison record: quarantine it to the
#: dead-letter sink, or raise (kill the worker — debugging only).
POISON_POLICIES = ("quarantine", "raise")

#: Control message asking a worker to flush its last output and exit.
STOP = "stop"


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker process needs to build its pipeline.

    Attributes:
        shard_id: This shard's index in ``0..num_shards-1``.
        num_shards: Total shard count (for context in errors/stats).
        queries: The ACQ set, shared by all shards.
        operator: The aggregate operator (must be picklable for
            checkpointing and for ``spawn`` start methods).
        technique: Partial-aggregation technique (``panes``/``pairs``).
        mode: ``"global"`` or ``"per_key"`` (see module docstring).
        checkpoint_interval: Per-key mode: snapshot the shard state
            every this many batches; ``0`` disables checkpointing.
            Global- and time-mode shards hold no state to snapshot.
        throttle_seconds: Artificial per-batch delay — a test/benchmark
            knob that makes backpressure deterministic by simulating a
            slow consumer.  ``0.0`` in production use.
        poison_policy: ``"quarantine"`` (default) dead-letters poison
            records; ``"raise"`` re-raises them as
            :class:`~repro.errors.PoisonRecordError` (killing the
            worker — useful when debugging an unexpected poison
            source, never in production).
        chaos: Optional worker-side
            :class:`~repro.service.chaos.WorkerFaultPlan` applied
            before each batch (fault-injection tests only).
        slice_seconds: Time-slice width for ``"time"`` mode (the GCD of
            the time queries' ranges and slides); ``0.0`` otherwise.
        origin: Timestamp of the first time-slice boundary
            (``"time"`` mode).
    """

    shard_id: int
    num_shards: int
    queries: Tuple[Query, ...]
    operator: AggregateOperator
    technique: str = "pairs"
    mode: str = "global"
    checkpoint_interval: int = 16
    throttle_seconds: float = 0.0
    poison_policy: str = "quarantine"
    chaos: Optional[Any] = None
    slice_seconds: float = 0.0
    origin: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in SHARD_MODES:
            raise ServiceError(
                f"unknown shard mode {self.mode!r}; expected one of "
                f"{SHARD_MODES}"
            )
        if self.mode == "time" and not self.slice_seconds > 0:
            raise ServiceError(
                "time mode requires a positive slice_seconds, got "
                f"{self.slice_seconds!r}"
            )
        if self.checkpoint_interval < 0:
            raise ServiceError(
                "checkpoint_interval must be >= 0, got "
                f"{self.checkpoint_interval}"
            )
        if self.poison_policy not in POISON_POLICIES:
            raise ServiceError(
                f"unknown poison policy {self.poison_policy!r}; "
                f"expected one of {POISON_POLICIES}"
            )


@dataclass
class ShardOutput:
    """One processed batch's results, shipped parent-ward.

    Also serves as the batch acknowledgement: ``seq`` tells the
    supervisor the batch's effects have reached the parent (in per-key
    mode, that the worker's state reflects every batch up to it).

    Attributes:
        shard_id: Producing shard.
        seq: Sequence number of the acknowledged batch.
        watermark: The batch's slice watermark, echoed.
        partials: Global and time mode — the batch's slice pieces, one
            ``(slice_index, first_position, piece)`` triple per
            same-slice run holding a clean record, in stream order.
        key_answers: Per-key mode — ``(key, position, query, answer)``
            tuples (positions are per-key stream positions).
        records: Records successfully folded from this batch (poison
            records are excluded — they appear in ``dead_letters``).
        dead_letters: Records of this batch quarantined as poison.
        degraded_keys: Keys newly marked degraded by this batch
            (per-key mode, when a poisoned engine had to be dropped).
        busy_seconds: Wall time spent processing the batch.
        snapshot: A checkpoint of the post-batch shard state, when the
            checkpoint interval elapsed.
        trace_ids: Distinct telemetry trace ids of the batch's records,
            in first-appearance order — lets the parent attribute the
            fold's ``busy_seconds`` to the traces it served without the
            worker knowing anything about telemetry.
        transport_seconds: Worker-side time spent decoding the batch
            off the shared-memory ring (``0.0`` on the inline
            transport).
    """

    shard_id: int
    seq: int
    watermark: int
    partials: List[Tuple[int, int, Agg]] = field(default_factory=list)
    key_answers: List[Tuple[Any, int, Query, Any]] = field(
        default_factory=list
    )
    records: int = 0
    dead_letters: List[DeadLetter] = field(default_factory=list)
    degraded_keys: List[Any] = field(default_factory=list)
    busy_seconds: float = 0.0
    snapshot: Optional[bytes] = None
    trace_ids: Tuple[int, ...] = ()
    transport_seconds: float = 0.0


class ShardState:
    """The picklable computation state of one shard (checkpoint unit)."""

    def __init__(self, config: ShardConfig):
        self.config = config
        #: Per-key mode: the last batch the key engines reflect.
        self.processed_seq = 0
        #: Keys whose per-key engine was poisoned mid-feed and dropped.
        self.degraded_keys: set = set()
        self._engines: Dict[Any, StreamEngine] = {}
        self._sinks: Dict[Any, CollectSink] = {}
        #: The slice timeline the fold cuts runs on: count positions
        #: (global mode) or event time; per-key mode keeps no slices.
        self._clock: Union[SliceClock, TimeSliceClock, None] = None
        if config.mode == "time":
            self._clock = TimeSliceClock(
                config.slice_seconds, config.origin
            )
        else:
            plan = build_shared_plan(config.queries, config.technique)
            if config.mode == "global":
                self._clock = SliceClock(plan)

    def _engine_for(self, key: Any) -> StreamEngine:
        engine = self._engines.get(key)
        if engine is None:
            sink = CollectSink()
            engine = StreamEngine(
                self.config.queries,
                self.config.operator,
                technique=self.config.technique,
                sinks=[sink],
            )
            self._engines[key] = engine
            self._sinks[key] = sink
        return engine

    def _quarantine(
        self,
        output: ShardOutput,
        key: Any,
        value: Any,
        position: int,
        error: BaseException,
    ) -> None:
        """Dead-letter one poison record (or re-raise under ``"raise"``)."""
        if self.config.poison_policy == "raise":
            raise PoisonRecordError(
                f"poison record for key {key!r} at position {position} "
                f"in shard {self.config.shard_id}: {error!r}",
                cause=repr(error),
            ) from error
        output.dead_letters.append(
            DeadLetter(
                key=key,
                value=value,
                position=position,
                shard_id=self.config.shard_id,
                error=repr(error),
            )
        )

    def process(self, batch: Batch) -> ShardOutput:
        """Process one batch and emit its output.

        Global and time mode are a pure function of the frame: a
        replayed frame yields the same pieces, which the merger
        deduplicates.  Per-key mode acknowledges a replayed batch its
        engines already reflect (``seq`` at or below
        :attr:`processed_seq`) with an empty output.  Poison records
        are quarantined per record and never tear down the fold.
        """
        output = ShardOutput(
            self.config.shard_id, batch.seq, batch.watermark
        )
        if self._clock is None and batch.seq <= self.processed_seq:
            return output
        if batch.traces is not None:
            output.trace_ids = tuple(
                dict.fromkeys(
                    trace for trace in batch.traces if trace is not None
                )
            )
        if self._clock is None:
            output.records = self._process_per_key(batch, output)
            self.processed_seq = batch.seq
        else:
            output.records = self._fold_slices(batch, output)
        return output

    def _fold_slices(self, batch: Batch, output: ShardOutput) -> int:
        """Global and time mode: one piece per same-slice run, one kernel call.

        The batch's ordering column — its event ``timestamps`` when it
        carries them, its global ``positions`` otherwise — is ascending
        (a frame is a contiguous run of the stream, and the ingress
        reorder buffer releases event records in timestamp order), so
        the records of one slice are one contiguous run and the clock's
        ``cut`` finds its end with one bisection instead of a
        per-record ``slice_of`` scan.  Every run folds from the
        operator identity through one
        :meth:`repro.kernels.BatchKernel.fold_runs` — byte-identical to
        the per-record combine chain — and becomes the piece keyed by
        its slice and its first position.  A batch holding a poison
        record raises inside the kernel and is replayed per record
        (:meth:`_fold_per_record`).
        """
        operator = self.config.operator
        slice_of = self._clock.slice_of
        cut = self._clock.cut
        positions = batch.positions
        column = batch.timestamps
        if column is None:
            column = positions
        values = batch.values
        total = len(values)
        slices: List[int] = []
        firsts: List[int] = []
        bounds = [0]
        start = 0
        while start < total:
            index = slice_of(column[start])
            slices.append(index)
            firsts.append(positions[start])
            start = cut(column, index, start + 1, total)
            bounds.append(start)
        try:
            pieces = kernel_for(operator).fold_runs(
                values, bounds, operator.identity
            )
        except Exception:  # a poison record somewhere: replay per record
            return self._fold_per_record(batch, output, slices, bounds)
        output.partials = list(zip(slices, firsts, pieces))
        return total

    def _fold_per_record(
        self,
        batch: Batch,
        output: ShardOutput,
        slices: List[int],
        bounds: List[int],
    ) -> int:
        """Replay a batch's runs one ⊕ at a time, quarantining poisons.

        Exactly the poison records are quarantined, by stream position
        alone — the batch carries no keys here; the parent names them —
        and the clean ones fold.  A run with no clean record yields no
        piece.
        """
        operator = self.config.operator
        combine = operator.combine
        lift = operator.lift
        values = batch.values
        positions = batch.positions
        folded = 0
        for run, index in enumerate(slices):
            piece = operator.identity
            clean = 0
            for offset in range(bounds[run], bounds[run + 1]):
                value = values[offset]
                try:
                    piece = combine(piece, lift(value))
                except Exception as error:
                    self._quarantine(
                        output, None, value, positions[offset], error
                    )
                    continue
                clean += 1
            if clean:
                output.partials.append(
                    (index, positions[bounds[run]], piece)
                )
                folded += clean
        return folded

    def _process_per_key(self, batch: Batch, output: ShardOutput) -> int:
        """Per-key mode: feed contiguous same-key runs through the bulk path.

        Each run is first *dry-run folded* (no engine state touched);
        a run that folds cleanly is handed to the key's engine via
        :meth:`~repro.stream.engine.StreamEngine.feed_many`, and a run
        that raises falls back to the per-record loop — lift-poisons
        are quarantined without touching the engine, an engine poisoned
        mid-feed degrades its key, and later records for a degraded key
        are quarantined, all exactly as per-record processing does.
        """
        operator = self.config.operator
        degraded = self.degraded_keys
        positions = batch.positions
        keys = batch.keys
        values = batch.values
        total = len(values)
        folded = 0
        start = 0
        while start < total:
            key = keys[start]
            stop = start + 1
            while stop < total and keys[stop] == key:
                stop += 1
            if key in degraded:
                for offset in range(start, stop):
                    self._quarantine(
                        output,
                        key,
                        values[offset],
                        positions[offset],
                        PoisonRecordError(
                            f"key {key!r} degraded by an earlier "
                            "poison record; engine state discarded"
                        ),
                    )
                start = stop
                continue
            run = values[start:stop]
            try:
                # Dry run: every lift and combine the engine would
                # perform, against a throwaway accumulator.  Poison
                # values raise here, before any engine state mutates.
                kernel_for(operator).fold(run, operator.identity)
            except Exception:
                folded += self._feed_per_record(
                    batch, output, start, stop
                )
                start = stop
                continue
            engine = self._engine_for(key)
            try:
                engine.feed_many(run)
            except Exception as error:
                # The dry run passed but the engine still raised (a
                # state-dependent fault): its window contents can no
                # longer be trusted, and which records of the run it
                # absorbed is unknowable — degrade the key and
                # quarantine the whole run.
                self._engines.pop(key, None)
                self._sinks.pop(key, None)
                degraded.add(key)
                output.degraded_keys.append(key)
                for offset in range(start, stop):
                    self._quarantine(
                        output,
                        key,
                        values[offset],
                        positions[offset],
                        error,
                    )
                start = stop
                continue
            folded += stop - start
            sink = self._sinks[key]
            if sink.answers:
                output.key_answers.extend(
                    (key, position, query, answer)
                    for position, query, answer in sink.answers
                )
                sink.answers.clear()
            start = stop
        return folded

    def _feed_per_record(
        self, batch: Batch, output: ShardOutput, start: int, stop: int
    ) -> int:
        """The original per-record per-key loop, over one poisoned run."""
        operator = self.config.operator
        folded = 0
        for offset in range(start, stop):
            position = batch.positions[offset]
            key = batch.keys[offset]
            value = batch.values[offset]
            if key in self.degraded_keys:
                self._quarantine(
                    output,
                    key,
                    value,
                    position,
                    PoisonRecordError(
                        f"key {key!r} degraded by an earlier "
                        "poison record; engine state discarded"
                    ),
                )
                continue
            try:
                operator.lift(value)
            except Exception as error:
                self._quarantine(output, key, value, position, error)
                continue
            engine = self._engine_for(key)
            try:
                engine.feed(value)
            except Exception as error:
                # The engine mutated state before raising: its
                # window contents can no longer be trusted.
                self._engines.pop(key, None)
                self._sinks.pop(key, None)
                self.degraded_keys.add(key)
                output.degraded_keys.append(key)
                self._quarantine(output, key, value, position, error)
                continue
            folded += 1
            sink = self._sinks[key]
            if sink.answers:
                output.key_answers.extend(
                    (key, position, query, answer)
                    for position, query, answer in sink.answers
                )
                sink.answers.clear()
        return folded


def shard_main(
    config: ShardConfig,
    endpoint: Any,
    initial_snapshot: Optional[bytes] = None,
) -> None:
    """Worker-process entry point: restore, then loop over batches.

    Args:
        config: The shard's pipeline configuration.
        endpoint: The shard's
            :class:`~repro.service.transport.shm.WorkerEndpoint`:
            batches arrive as zero-copy columnar views off its data
            ring, outputs and the ``STOP`` acknowledgement return on
            its result ring.  Closed when the loop ends.
        initial_snapshot: Per-key mode: checkpoint bytes to resume
            from (recovery); ``None`` starts from a fresh state.

    Only a per-key shard checkpoints.  A torn ring frame (CRC
    mismatch — the producer died mid-write or chaos corrupted the
    bytes) raises out of the receive path and the worker exits
    nonzero; the supervisor's crash recovery respawns it with fresh
    rings and a replay.
    """
    try:
        if initial_snapshot is not None:
            state = restore(initial_snapshot, expected_type="ShardState")
        else:
            state = ShardState(config)
        fault_plan = config.chaos
        per_key = config.mode == "per_key"
        interval = config.checkpoint_interval if per_key else 0
        batches_since_checkpoint = 0
        while True:
            message = endpoint.receive()
            if message == STOP:
                endpoint.acknowledge_stop()
                return
            if fault_plan is not None:
                fault_plan.apply(message.seq)
            if config.throttle_seconds:
                time.sleep(config.throttle_seconds)
            started = time.perf_counter()
            output = state.process(message)
            output.busy_seconds = time.perf_counter() - started
            batches_since_checkpoint += 1
            if interval and batches_since_checkpoint >= interval:
                output.snapshot = snapshot(state)
                batches_since_checkpoint = 0
            # Release the batch's ring views and consume the frame
            # before shipping the output: the fold is complete, so the
            # producer may reuse the bytes.
            endpoint.commit()
            output.transport_seconds = endpoint.take_decode_seconds()
            endpoint.send_output(output)
    finally:
        # A mapping still open at interpreter exit fails to close with
        # a BufferError traceback (a forked worker skips that cleanup,
        # a spawned one does not).
        endpoint.close()
