"""Shard worker: the per-partition computation and its process loop.

A shard runs one of two pipelines over the records it is sent:

* **global mode** — the frames dealt to it, each a contiguous run of
  stream positions whose keys it never sees: fold each record into the
  partial of its slice on
  the stream's slice timeline (the shard-local half of the engine's
  partial aggregation): the slice of its global position, or — in
  ``"time"`` mode, where records carry event timestamps — of its
  timestamp.  One fold serves both; only the clock that cuts the runs
  differs.  Completed partials are shipped to the parent, where the
  cross-shard merger recombines them and drives the shared SlickDeque
  final aggregation.
* **per-key mode** — the records of the keys hashed to it, one full
  :class:`~repro.stream.engine.StreamEngine` pipeline per key (shared
  SlickDeque plan each), emitting exact per-key answers for any
  operator, mergeable or not.

Failure hardening lives at the record level: a value that raises inside
the operator (a *poison record*) is caught per record, quarantined as a
:class:`~repro.stream.sink.DeadLetter` on the batch's output, and never
kills the worker.  Slice folds go through a temporary, so the
accumulator is untouched by a poisoned record; per-key mode pre-checks
``lift`` before feeding the key's engine, and if the engine itself
raises mid-feed the key is marked *degraded* (its engine state can no
longer be trusted) and subsequent records for it are quarantined too.

:class:`ShardState` is the *pure* computation state — a plain picklable
object, so :mod:`repro.stream.checkpoint` snapshots it byte-for-byte and
the supervisor can restore a killed worker and replay its un-checkpointed
batches.  :func:`shard_main` is the process entry point wrapping that
state in a loop over the shard's two shared-memory rings, its only
channel to the supervisor: batches and ``STOP`` in, one output per
batch and a ``STOP`` acknowledgement out.  The supervisor tells a slow
worker from a wedged one by the rings moving, so the worker sends
nothing just to look alive.
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
        checkpoint_interval: Snapshot the shard state every this many
            batches; ``0`` disables checkpointing.
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
    supervisor the worker's state now reflects every batch up to it.

    Attributes:
        shard_id: Producing shard.
        seq: Sequence number of the acknowledged batch.
        watermark: Slices the shard has closed (mirrors the batch).
        partials: Global mode — ``(slice_index, partial)`` pairs closed
            by this batch, ascending by index.
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
    partials: List[Tuple[int, Agg]] = field(default_factory=list)
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
        self.processed_seq = 0
        self.records = 0
        #: Keys whose per-key engine was poisoned mid-feed and dropped.
        self.degraded_keys: set = set()
        #: Monotone slice watermark this shard has acknowledged —
        #: pickled with the state, so a restored worker resumes from
        #: its checkpointed watermark and, because outputs echo
        #: ``max(batch.watermark, self.watermark)``, never reports a
        #: regressed one while replaying.
        self.watermark = 0
        self._accumulators: Dict[int, Agg] = {}
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
        """Fold one batch into the shard state and emit its output.

        Replayed batches the state already reflects (``seq`` at or
        below :attr:`processed_seq`) are acknowledged with an empty
        output, keeping recovery idempotent.  Poison records are
        quarantined per record (see the module docstring) and never
        tear down the fold.
        """
        if batch.watermark > self.watermark:
            self.watermark = batch.watermark
        if batch.seq <= self.processed_seq:
            # Replay acknowledgement: echo the *monotone* watermark, so
            # a restored worker replaying pre-checkpoint batches never
            # reports one older than its checkpointed state.
            return ShardOutput(
                self.config.shard_id, batch.seq, self.watermark
            )
        output = ShardOutput(
            self.config.shard_id,
            batch.seq,
            self.watermark,
        )
        if batch.traces is not None:
            output.trace_ids = tuple(
                dict.fromkeys(
                    trace for trace in batch.traces if trace is not None
                )
            )
        if self._clock is None:
            folded = self._process_per_key(batch, output)
        else:
            folded = self._fold_slices(batch, output)
            accumulators = self._accumulators
            closed = sorted(
                index for index in accumulators if index < self.watermark
            )
            output.partials = [
                (index, accumulators.pop(index)) for index in closed
            ]
        output.records = folded
        self.processed_seq = batch.seq
        self.records += folded
        return output

    def _fold_slices(self, batch: Batch, output: ShardOutput) -> int:
        """Global and time mode: fold every same-slice run in one kernel call.

        The batch's ordering column — its event ``timestamps`` when it
        carries them, its global ``positions`` otherwise — is ascending
        (a frame is a contiguous run of the stream, the ingress
        reorder buffer releases event records in timestamp order, and
        replayed batches are the originals), so the records
        of one slice are one contiguous run and the clock's ``cut``
        finds its end with one bisection instead of a per-record
        ``slice_of`` scan.  The whole batch is cut first, then all its
        runs fold through one
        :meth:`repro.kernels.BatchKernel.fold_runs` — byte-identical to
        the per-record combine chain — into a temporary, and only then
        are the accumulators written: a batch holding a poison record
        raises *before* any state is touched and is replayed per record
        (:meth:`_fold_per_record`).  Only the first run of a batch can
        continue an accumulator an earlier batch left open; a batch in
        which a later run's slice already has one (the column ascends
        across batches, but that is not provable from one batch) takes
        the per-record replay too, which seeds every run.
        """
        operator = self.config.operator
        accumulators = self._accumulators
        slice_of = self._clock.slice_of
        cut = self._clock.cut
        column = batch.timestamps
        if column is None:
            column = batch.positions
        values = batch.values
        total = len(values)
        indexes: List[int] = []
        bounds = [0]
        start = 0
        while start < total:
            index = slice_of(column[start])
            start = cut(column, index, start + 1, total)
            indexes.append(index)
            bounds.append(start)
        if not indexes:
            return 0
        fresh = accumulators.keys().isdisjoint(indexes[1:])
        if fresh and len(set(indexes)) == len(indexes):
            try:
                folded = kernel_for(operator).fold_runs(
                    values,
                    bounds,
                    accumulators.get(indexes[0], operator.identity),
                )
            except Exception:
                pass  # a poison record somewhere: replay per record
            else:
                accumulators.update(zip(indexes, folded))
                return total
        return self._fold_per_record(batch, output, indexes, bounds)

    def _fold_per_record(
        self,
        batch: Batch,
        output: ShardOutput,
        indexes: List[int],
        bounds: List[int],
    ) -> int:
        """Replay a batch's runs one ⊕ at a time, quarantining poisons.

        Exactly the poison records are quarantined, by stream position
        alone — the batch carries no keys here; the parent names them —
        and the clean ones fold, leaving each accumulator as the
        per-record path would.  An all-poison run must not materialise
        an accumulator entry the per-record path never made.
        """
        operator = self.config.operator
        combine = operator.combine
        lift = operator.lift
        accumulators = self._accumulators
        values = batch.values
        positions = batch.positions
        folded = 0
        for run, index in enumerate(indexes):
            present = index in accumulators
            acc = accumulators[index] if present else operator.identity
            succeeded = False
            for offset in range(bounds[run], bounds[run + 1]):
                value = values[offset]
                try:
                    acc = combine(acc, lift(value))
                except Exception as error:
                    self._quarantine(
                        output, None, value, positions[offset], error
                    )
                    continue
                succeeded = True
                folded += 1
            if present or succeeded:
                accumulators[index] = acc
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
        initial_snapshot: Checkpoint bytes to resume from (recovery);
            ``None`` starts from a fresh state.

    A torn ring frame (CRC mismatch — the producer died mid-write or
    chaos corrupted the bytes) raises out of the receive path and the
    worker exits nonzero; the supervisor's crash recovery respawns it
    with fresh rings and a checkpoint replay.
    """
    try:
        if initial_snapshot is not None:
            state = restore(initial_snapshot, expected_type="ShardState")
        else:
            state = ShardState(config)
        fault_plan = config.chaos
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
            if (
                config.checkpoint_interval
                and batches_since_checkpoint >= config.checkpoint_interval
            ):
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
