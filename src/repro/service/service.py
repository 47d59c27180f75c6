"""The sharded aggregation service facade.

:class:`AggregationService` glues the subsystem together: a
:class:`~repro.service.partition.Router` frames records into
micro-batches (contiguous frames dealt round-robin in global and time
mode, hash-partitioned by key in per-key mode), a transport (process-backed
:class:`~repro.service.supervisor.Supervisor` or in-process
:class:`~repro.service.supervisor.InlineTransport`) runs the shard
pipelines, and a merge layer turns shard outputs into answers —
merged across shards from per-slice pieces in global and time mode,
collated per key otherwise.

Usage::

    from repro import AggregationService, Query, get_operator

    service = AggregationService(
        [Query(8, 4), Query(6, 2)], get_operator("sum"), num_shards=4
    )
    for key, value in keyed_stream:
        service.submit(key, value)
        for position, query, answer in service.poll():
            ...
    result = service.close()     # remaining answers + stats

In global mode the emitted ``(position, query, answer)`` triples are
identical to a single-process :class:`~repro.stream.engine.StreamEngine`
run over the same records in submission order (exactly, for exact-value
streams such as integers; floating-point answers may differ by
rounding, since a slice's pieces are folded separately before they
combine).

Failure handling (see ``docs/fault_tolerance.md`` for the full model):
poison records are quarantined to the service's
:class:`~repro.stream.sink.DeadLetterSink`; crashed workers are
respawned within a per-shard restart budget — a global- or time-mode
shard holds nothing between frames and is sent the frames it had not
acknowledged, a per-key shard resumes from its CRC-verified
checkpoint; a shard that exhausts the budget is reported in
``stats.failed_shards``, the records it had not acknowledged are
dead-lettered with their keys in ``stats.degraded_keys``, and the rest
of the service keeps answering.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.multiquery import Answer, SharedSlickDeque
from repro.errors import ServiceError
from repro.metrics import Summary, ThroughputResult, maybe_summary
from repro.service.merge import EventTimeMerger, GlobalMerger, PerKeyCollator
from repro.service.partition import Router
from repro.service.shard import SHARD_MODES, ShardConfig
from repro.service.supervisor import (
    DEFAULT_RING_CAPACITY,
    InlineTransport,
    Supervisor,
)
from repro.operators.base import AggregateOperator
from repro.stream.outoforder import (
    LATE_POLICIES,
    TimestampReorderBuffer,
)
from repro.stream.sink import DeadLetter, DeadLetterSink
from repro.windows.query import Query
from repro.windows.timebased import DEFAULT_RESOLUTION


@dataclass(frozen=True)
class ShardStats:
    """Per-shard instrumentation, aggregated from acknowledgements."""

    shard_id: int
    records: int
    batches: int
    busy_seconds: float
    checkpoints: int
    restores: int
    dropped: int
    #: Stall-detector kills (worker alive but silent past the timeout).
    stalls: int = 0
    #: Checkpoint generations rejected by their CRC32 check.
    corrupt_checkpoints: int = 0
    #: The shard exhausted its restart budget and was abandoned.
    failed: bool = False

    @property
    def throughput(self) -> ThroughputResult:
        """Records folded per busy second inside the worker."""
        return ThroughputResult(
            slides=self.records, seconds=self.busy_seconds
        )


@dataclass(frozen=True)
class ServiceStats:
    """Whole-service instrumentation for one run."""

    shards: Tuple[ShardStats, ...]
    records_submitted: int
    records_processed: int
    dropped_records: int
    answers_emitted: int
    elapsed_seconds: float
    #: Ship-to-acknowledge latency per batch (process transport only;
    #: a bounded uniform sample on long runs).
    batch_latency: Optional[Summary]
    #: Records quarantined to the dead-letter sink (poison records
    #: plus the backlog of any failed shard).
    dead_letters: int = 0
    #: Shards that exhausted their restart budget, ascending.
    failed_shards: Tuple[int, ...] = ()
    #: Keys whose answers are degraded/stale: the keys of the records
    #: a failed shard had not acknowledged (per-key mode: every key
    #: routed to it), plus per-key-mode keys poisoned mid-stream.
    degraded_keys: Tuple[Any, ...] = ()
    #: Data-plane accounting (plane name, columnar/pickled/spilled
    #: frame counts, encode/ring-wait/decode seconds); ``None`` only
    #: on results predating the transport layer.
    transport: Optional[Dict[str, Any]] = None
    #: Event-time records rejected as late (behind the bounded-lateness
    #: watermark) over the run; always ``0`` outside ``"time"`` mode.
    late_records: int = 0

    @property
    def degraded(self) -> bool:
        """Whether any part of the run's answers must be treated as stale."""
        return bool(self.failed_shards or self.degraded_keys)

    @property
    def ingest_throughput(self) -> ThroughputResult:
        """Submitted records per wall-clock second, end to end."""
        return ThroughputResult(
            slides=self.records_submitted, seconds=self.elapsed_seconds
        )


@dataclass(frozen=True)
class ServiceResult:
    """Everything :meth:`AggregationService.close` hands back.

    Attributes:
        answers: Global-mode answers ``(position, query, answer)`` in
            plan order; empty in per-key mode.
        per_key: Per-key-mode answers grouped by key (positions are
            per-key stream positions); empty in global mode.
        stats: Run instrumentation.
        dead_letters: Quarantined records, in quarantine order (also
            available on the service's dead-letter sink).
    """

    answers: List[Answer]
    per_key: Dict[Any, List[Tuple[int, Query, Any]]]
    stats: ServiceStats
    dead_letters: List[DeadLetter] = field(default_factory=list)


class AggregationService:
    """Sharded, multi-process sliding-window aggregation.

    Args:
        queries: The ACQ set, shared by every shard.
        operator: The aggregate operator.  Global and time mode
            accept any operator with a SlickDeque path (invertible,
            selection-type, or a composition; order-sensitive ones such
            as ``first`` included) and raise
            :class:`~repro.errors.MergeCapabilityError` otherwise;
            per-key mode accepts any operator
            :class:`~repro.stream.engine.StreamEngine` runs (Range
            included) and refuses the rest, e.g. ``bit_and``, with
            :class:`~repro.errors.InvalidOperatorError` at construction.
        num_shards: Worker (partition) count.
        technique: Partial-aggregation technique (``panes``/``pairs``).
        mode: ``"global"`` for merged whole-stream answers,
            ``"per_key"`` for independent per-key windows.
        batch_size: Records per frame in global and ``"time"`` mode;
            records per shard buffered before a flush round in per-key
            mode.
        queue_capacity: Unacknowledged batches in flight per shard
            (process transport).
        backpressure: ``"block"`` (lossless), ``"drop"`` or
            ``"sample"`` (load shedding with exact drop counts).
        checkpoint_interval: Per-key mode: shard checkpoint period in
            batches (``0`` disables checkpointing; recovery then
            replays the whole retained history).  Global- and
            time-mode shards hold no state and never checkpoint.
        transport: ``"process"`` (real workers, fault tolerance) or
            ``"inline"`` (synchronous in-process shards, deterministic).
        shard_delay_seconds: Test/benchmark knob — artificial per-batch
            worker delay for simulating slow consumers.
        max_restarts: Worker recoveries allowed per shard before the
            shard is declared failed and its keys degraded.
        restart_backoff: Base seconds of the exponential pre-respawn
            backoff (doubles per consecutive restore, capped).
        stall_timeout: Seconds a worker with work outstanding may go
            without visible progress (taking a frame off its data ring,
            or an output of its read off the result ring) before the
            stall detector kills and recovers it; ``0`` disables stall
            detection.
        poison_policy: ``"quarantine"`` (default) routes poison
            records to the dead-letter sink; ``"raise"`` lets them
            kill the worker (debugging only).
        dead_letter_sink: Sink receiving quarantined records; a fresh
            :class:`~repro.stream.sink.DeadLetterSink` by default.
        injector: Optional
            :class:`~repro.service.chaos.FaultInjector` wired through
            the supervisor's lifecycle hooks (tests only).
        telemetry: Optional :class:`~repro.telemetry.Telemetry` hub.
            When set (at construction or later via
            :meth:`attach_telemetry`) the service observes per-batch
            shard-fold and merge latencies into the hub's registry and
            attributes them to submission traces; when ``None`` every
            hot path pays only a ``None`` check.
        data_plane: ``"auto"`` or ``"shm"``: both name the shared-memory
            ring plane, the only process data plane; anything else
            raises.  Kept only for callers that still pass it.
        ring_capacity: Per-ring byte capacity of the shm data plane.
        lateness: ``"time"`` mode — bounded-lateness allowance in
            seconds: a record may arrive this far behind the newest
            event timestamp and still land in its window exactly.
        late_policy: ``"time"`` mode — what happens to a record behind
            the watermark: ``"raise"`` surfaces
            :class:`~repro.errors.LateRecordError` to the submitter,
            ``"drop"`` quarantines it to the dead-letter sink,
            ``"side_output"`` only counts it.
        origin: ``"time"`` mode — timestamp of the first time-slice
            boundary; records before it are rejected.
        resolution: ``"time"`` mode — duration resolution of the
            time-to-count reduction (1 ms by default).
    """

    def __init__(
        self,
        queries: Sequence[Query],
        operator: AggregateOperator,
        num_shards: int = 4,
        technique: str = "pairs",
        mode: str = "global",
        batch_size: int = 64,
        queue_capacity: int = 8,
        backpressure: str = "block",
        checkpoint_interval: int = 16,
        transport: str = "process",
        shard_delay_seconds: float = 0.0,
        max_restarts: int = 5,
        restart_backoff: float = 0.05,
        stall_timeout: float = 10.0,
        poison_policy: str = "quarantine",
        dead_letter_sink: Optional[DeadLetterSink] = None,
        injector: Optional[Any] = None,
        telemetry: Optional[Any] = None,
        data_plane: str = "auto",
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        lateness: float = 0.0,
        late_policy: str = "raise",
        origin: float = 0.0,
        resolution: float = DEFAULT_RESOLUTION,
    ):
        if num_shards < 1:
            raise ServiceError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if mode not in SHARD_MODES:
            raise ServiceError(
                f"unknown service mode {mode!r}; expected one of "
                f"{SHARD_MODES}"
            )
        if late_policy not in LATE_POLICIES:
            raise ServiceError(
                f"unknown late-record policy {late_policy!r}; "
                f"expected one of {LATE_POLICIES}"
            )
        if data_plane not in ("auto", "shm"):
            raise ServiceError(
                f"data_plane={data_plane!r} is not supported: the pickle "
                "queue plane was removed, and the shared-memory ring plane "
                "('auto' or 'shm') is the only process data plane"
            )
        self.queries = tuple(queries)
        self.operator = operator
        self.mode = mode
        self.num_shards = num_shards
        #: Quarantine for poison records and failed-shard backlogs.
        self.dead_letters = (
            dead_letter_sink
            if dead_letter_sink is not None
            else DeadLetterSink()
        )
        self._merger: Optional[Any] = None
        self._collator: Optional[PerKeyCollator] = None
        self._ingress: Optional[TimestampReorderBuffer] = None
        self._late_policy = late_policy
        self._late_seq = 0
        slice_seconds = 0.0
        if mode == "global":
            self._merger = GlobalMerger(
                self.queries, operator, technique, num_shards
            )
        elif mode == "time":
            self._merger = EventTimeMerger(
                self.queries,
                operator,
                technique,
                num_shards,
                origin=origin,
                resolution=resolution,
            )
            slice_seconds = self._merger.slice_seconds
            # The ingress reorder buffer releases records in timestamp
            # order; ``drop`` diverts late records to the dead-letter
            # sink, ``side_output`` only counts them, and ``raise``
            # never reaches the handler.
            self._ingress = TimestampReorderBuffer(
                lateness,
                late_policy,
                on_late=self._on_late_record,
                origin=origin,
            )
        else:
            # Build one per-key engine eagerly: a plan or operator its
            # shards cannot run fails here, before any worker spawns.
            SharedSlickDeque(self.queries, operator, technique)
            self._collator = PerKeyCollator()
        self.origin = origin
        self.slice_seconds = slice_seconds
        self._router = Router(
            num_shards,
            batch_size,
            None if self._merger is None else self._merger.clock,
        )
        configs = [
            ShardConfig(
                shard_id=shard,
                num_shards=num_shards,
                queries=self.queries,
                operator=operator,
                technique=technique,
                mode=mode,
                checkpoint_interval=checkpoint_interval,
                throttle_seconds=shard_delay_seconds,
                poison_policy=poison_policy,
                slice_seconds=slice_seconds,
                origin=origin,
            )
            for shard in range(num_shards)
        ]
        self._failed_shards: Dict[int, str] = {}
        # Degraded keys by ``repr``: marked in order, each once, and an
        # unhashable key (global mode never hashes one) is fine.
        self._degraded_keys: Dict[str, Any] = {}
        self._letter_positions: set = set()
        if transport == "process":
            self._transport: Any = Supervisor(
                configs,
                queue_capacity,
                backpressure,
                injector=injector,
                max_restarts=max_restarts,
                restart_backoff=restart_backoff,
                stall_timeout=stall_timeout,
                on_shard_failed=self._on_shard_failed,
                ring_capacity=ring_capacity,
            )
        elif transport == "inline":
            self._transport = InlineTransport(configs, backpressure)
        else:
            raise ServiceError(
                f"unknown transport {transport!r}; expected 'process' "
                "or 'inline'"
            )
        self._answers: List[Answer] = []
        self._fresh_answers: List[Answer] = []
        self._fresh_per_key: List[Tuple[Any, int, Query, Any]] = []
        self._closed = False
        self._started_at = time.perf_counter()
        # Telemetry: instrument handles are bound in attach_telemetry
        # so the uninstrumented hot path is a single None check.
        self._telemetry: Optional[Any] = None
        self._fold_hist: Optional[Any] = None
        self._merge_hist: Optional[Any] = None
        self._records_counter: Optional[Any] = None
        self._answers_counter: Optional[Any] = None
        self._dead_letter_counter: Optional[Any] = None
        self._transport_hists: Dict[str, Any] = {}
        self._ring_gauges: List[Any] = []
        self._watermark_gauges: List[Any] = []
        self._late_counter: Optional[Any] = None
        # (first_position, last_position, trace_id) per traced submit
        # call, consumed ascending as answers pass their positions.
        self._trace_intervals: deque = deque()
        self._max_trace_intervals = 4096
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    # -- telemetry --------------------------------------------------

    def attach_telemetry(self, telemetry: Any) -> None:
        """Bind a :class:`~repro.telemetry.Telemetry` hub to observe into.

        Registers the service's per-stage histograms and counters on
        the hub's registry (idempotent for the same hub: instruments
        are get-or-create).  May be called after construction — the
        network server uses this to point an already-built service at
        its own hub so one exposition covers every stage.
        """
        registry = telemetry.registry
        self._telemetry = telemetry
        self._fold_hist = registry.histogram(
            "repro_shard_fold_seconds",
            "Per-batch shard worker fold latency (busy time)",
        )
        self._merge_hist = registry.histogram(
            "repro_merge_seconds",
            "Per-output global merge frontier-advance latency",
        )
        self._records_counter = registry.counter(
            "repro_service_records_processed_total",
            "Records folded by shard workers",
        )
        self._answers_counter = registry.counter(
            "repro_service_answers_total",
            "Answers released by the merge layer",
        )
        self._dead_letter_counter = registry.counter(
            "repro_service_dead_letters_total",
            "Records quarantined to the dead-letter sink",
        )
        self._transport_hists = {
            "encode": registry.histogram(
                "repro_transport_encode_seconds",
                "Per-batch columnar/pickle frame encode latency",
            ),
            "ring_wait": registry.histogram(
                "repro_transport_ring_wait_seconds",
                "Backpressure wait for shared-memory ring capacity",
            ),
            "decode": registry.histogram(
                "repro_transport_decode_seconds",
                "Worker-side per-batch ring frame decode latency",
            ),
        }
        self._ring_gauges = [
            registry.gauge(
                "repro_transport_ring_occupancy",
                "Shared-memory ring occupancy fraction (fuller ring)",
                labels={"shard": str(shard)},
            )
            for shard in range(self.num_shards)
        ]
        if self._ingress is not None:
            self._watermark_gauges = [
                registry.gauge(
                    "repro_watermark_lag_seconds",
                    "Event-time gap between the newest timestamp seen "
                    "and the slices the shard has closed",
                    labels={"shard": str(shard)},
                )
                for shard in range(self.num_shards)
            ]
            self._late_counter = registry.counter(
                "repro_late_records_total",
                "Event-time records rejected behind the watermark",
            )
        self._transport.transport_observer = self._observe_transport

    def _observe_transport(self, stage: str, seconds: float) -> None:
        """Supervisor callback: one transport-stage latency sample."""
        histogram = self._transport_hists.get(stage)
        if histogram is not None:
            histogram.observe(seconds)

    @property
    def telemetry(self) -> Optional[Any]:
        """The attached telemetry hub, or ``None``."""
        return self._telemetry

    def _note_trace_interval(self, first: int, last: int, trace_id):
        """Remember that positions ``first..last`` belong to a trace."""
        if trace_id is None or first > last:
            return
        self._trace_intervals.append((first, last, trace_id))
        while len(self._trace_intervals) > self._max_trace_intervals:
            self._trace_intervals.popleft()

    def _trace_for_position(self, position: int) -> Optional[int]:
        """Trace owning a (monotone ascending) answer position.

        Intervals wholly behind ``position`` are pruned as a side
        effect, keeping the scan O(1) amortised over a run.
        """
        intervals = self._trace_intervals
        while intervals and intervals[0][1] < position:
            intervals.popleft()
        for first, last, trace_id in intervals:
            if first > position:
                return None
            if position <= last:
                return trace_id
        return None

    # -- ingestion --------------------------------------------------

    def submit(
        self, key: Any, value: Any, trace_id: Optional[int] = None
    ) -> None:
        """Ingest one keyed record, optionally attributed to a trace."""
        self._ingest(self._router.put, trace_id, key, value)

    def submit_many(
        self,
        records: Iterable[Tuple[Any, Any]],
        trace_id: Optional[int] = None,
    ) -> None:
        """Ingest ``(key, value)`` pairs, optionally under one trace.

        A row list or any other iterable of pairs, such as the column
        view the network layer decodes a batch into.  In global mode
        the call is all or nothing: a record that is not a pair raises
        with nothing ingested.  In per-key mode a record that cannot be
        routed (not a pair, unhashable key) raises with every record
        before it ingested and none after it consumed.
        """
        self._ingest(self._router.put_many, trace_id, records)

    def _ingest(self, route, trace_id: Optional[int], *args) -> None:
        """The one count-mode ingest body: route, ship, note the trace."""
        if self._closed:
            raise ServiceError("cannot submit to a closed service")
        if self._ingress is not None:
            raise ServiceError(
                "time-mode service requires submit_event / "
                "submit_events (records must carry event timestamps)"
            )
        first = self._router.position + 1
        try:
            for batch in route(*args, trace_id):
                self._transport.ship(batch)
        finally:
            # Also on a bad record: the routed prefix carries the trace.
            self._note_trace_interval(
                first, self._router.position, trace_id
            )

    # -- event-time ingestion ---------------------------------------

    def submit_event(
        self,
        key: Any,
        value: Any,
        timestamp: float,
        trace_id: Optional[int] = None,
    ) -> None:
        """Ingest one event-timestamped record (``"time"`` mode).

        The one-record call of :meth:`submit_events`, with its rules;
        one record needs no batch proof, so it takes the reorder
        buffer's per-record :meth:`push_into
        <repro.stream.outoforder.TimestampReorderBuffer.push_into>`,
        which is all or nothing for one record.
        """
        if self._closed:
            raise ServiceError("cannot submit to a closed service")
        ingress = self._ingress
        if ingress is None:
            raise ServiceError(
                f"submit_event requires mode='time', not {self.mode!r}"
            )
        arrived = (
            time.perf_counter()
            if trace_id is not None and self._telemetry is not None
            else None
        )
        released: List[Tuple[float, Any]] = []
        item = (key, value, trace_id, arrived)
        ingress.push_into(timestamp, item, released)
        self._split_released(released)

    def submit_events(
        self,
        records: Iterable[Tuple[Any, float, Any]],
        trace_id: Optional[int] = None,
    ) -> None:
        """Ingest ``(key, timestamp, value)`` triples (``"time"`` mode).

        The batch enters the bounded-lateness reorder buffer in one
        call, judged against the watermark as of the previous call
        (:meth:`TimestampReorderBuffer.push_many_into
        <repro.stream.outoforder.TimestampReorderBuffer.push_many_into>`);
        the records it *releases* (their timestamps are final —
        nothing older can be admitted any more) are one splitter call,
        in timestamp order.  A record behind the watermark is handled
        per the configured late policy (raise / drop / side-output).

        All or nothing: a record that is not a triple, an invalid
        timestamp, or a late record under ``"raise"`` raises with
        nothing ingested, so a client may retry the batch's clean
        records without counting any twice.

        Raises:
            LateRecordError: under the ``"raise"`` policy, when a
                record's timestamp is behind the watermark.
            OutOfOrderError: when a timestamp is not a finite real
                number or precedes ``origin``.
        """
        if self._closed:
            raise ServiceError("cannot submit to a closed service")
        ingress = self._ingress
        if ingress is None:
            raise ServiceError(
                f"submit_event requires mode='time', not {self.mode!r}"
            )
        arrived = (
            time.perf_counter()
            if trace_id is not None and self._telemetry is not None
            else None
        )
        rows = [
            (timestamp, (key, value, trace_id, arrived))
            for key, timestamp, value in records
        ]
        released: List[Tuple[float, Any]] = []
        ingress.push_many_into(rows, released)
        self._split_released(released)

    def _split_released(self, released: List[Tuple[float, Any]]) -> None:
        """Frame what the reorder buffer let go as one splitter call.

        The slice watermark advances first: the splitter caps what a
        frame claims by the records it still holds, so the call's
        carriers already announce the slices this release closed.
        """
        advanced = self._router.watermark.advance(
            self._merger.clock.slices_closed_by(self._ingress.watermark)
        )
        if not (released or advanced):
            return
        stamps, keys, values, traces, arrivals = list(
            zip(*((stamp, *item) for stamp, item in released))
        ) or [()] * 5
        if self._telemetry is not None:
            # Attribute each traced record's reorder-buffer residence:
            # the gap between submission and release is exactly the
            # wait the lateness bound imposes.
            now = time.perf_counter()
            for trace, arrived in zip(traces, arrivals):
                if arrived is not None:
                    self._telemetry.tracer.record(
                        trace, "reorder", now - arrived
                    )
        untraced = traces.count(None) == len(traces)
        for batch in self._router.split(
            keys, values, None if untraced else traces, stamps
        ):
            self._transport.ship(batch)

    def _on_late_record(self, timestamp: float, item: Any) -> None:
        """Reorder-buffer callback for a late record (drop/side-output).

        Counts the drop and, under the ``"drop"`` policy, quarantines
        it to the dead-letter sink with a synthetic (negative) position
        and shard ``-1`` — a late record never receives a stream
        position or reaches a shard, and the unique negative keeps the
        sink's per-position deduplication intact.
        """
        key, value, _trace, _arrived = item
        if self._late_counter is not None:
            self._late_counter.inc(1)
        if self._late_policy == "drop":
            self._late_seq -= 1
            self._quarantine(
                [
                    DeadLetter(
                        key=key,
                        value=value,
                        position=self._late_seq,
                        shard_id=-1,
                        error=(
                            f"LateRecordError: timestamp {timestamp!r} "
                            f"behind watermark "
                            f"{self._ingress.watermark!r} (lateness "
                            f"bound {self._ingress.lateness!r})"
                        ),
                    )
                ]
            )

    # -- failure reporting ------------------------------------------

    def _on_shard_failed(self, shard_id: int, reason: str) -> None:
        """Supervisor callback: record the failure, unwedge the merge.

        Global and time mode deal no more frames to the shard; the keys
        of the records it held are marked degraded as their dead
        letters arrive.  Per-key mode degrades every key routed to it.
        """
        self._failed_shards[shard_id] = reason
        self._router.retire(shard_id)
        if self._merger is None:
            for key in sorted(self._router.seen_keys[shard_id], key=repr):
                self._mark_degraded(key)
        else:
            released = self._merger.mark_failed(shard_id)
            self._answers.extend(released)
            self._fresh_answers.extend(released)

    def _mark_degraded(self, key: Any) -> None:
        self._degraded_keys.setdefault(repr(key), key)

    def _quarantine(self, letters: Iterable[DeadLetter]) -> None:
        """Deduplicate (replays re-emit letters) and sink dead letters."""
        for letter in letters:
            if letter.position in self._letter_positions:
                continue
            self._letter_positions.add(letter.position)
            self.dead_letters.quarantine(letter)

    # -- answers ----------------------------------------------------

    def _absorb(self, outputs) -> None:
        # The transport's letters are the records of failed shards.
        letters = self._transport.take_dead_letters()
        self._quarantine(letters)
        for letter in letters:
            self._mark_degraded(letter.key)
        telemetry = self._telemetry
        for output in outputs:
            if output.dead_letters:
                self._quarantine(output.dead_letters)
            for key in output.degraded_keys:
                self._mark_degraded(key)
            if telemetry is not None:
                self._observe_output(telemetry, output)
            if self._merger is not None:
                if telemetry is None:
                    released = self._merger.on_output(output)
                else:
                    started = time.perf_counter()
                    released = self._merger.on_output(output)
                    merge_seconds = time.perf_counter() - started
                    self._merge_hist.observe(merge_seconds)
                    if released:
                        self._answers_counter.inc(len(released))
                    tracer = telemetry.tracer
                    for trace_id in output.trace_ids:
                        tracer.record(
                            trace_id, "merge", merge_seconds
                        )
                self._answers.extend(released)
                self._fresh_answers.extend(released)
            else:
                self._fresh_per_key.extend(
                    self._collator.on_output(output)
                )

    def _observe_output(self, telemetry, output) -> None:
        """Record one shard output's instrumentation into the hub.

        The fold ran in the worker (possibly another process); its
        ``busy_seconds`` is attributed here, parent-side, both to the
        fold histogram and to every trace the batch carried — the
        worker itself stays telemetry-free.
        """
        if output.records or output.busy_seconds:
            self._fold_hist.observe(output.busy_seconds)
        if output.records:
            self._records_counter.inc(output.records)
        if output.dead_letters:
            self._dead_letter_counter.inc(len(output.dead_letters))
        tracer = telemetry.tracer
        for trace_id in output.trace_ids:
            tracer.record(
                trace_id, "shard_fold", output.busy_seconds
            )

    def poll(self) -> List[Answer]:
        """Return answers released since the last poll.

        Global mode returns ``(position, query, answer)`` triples;
        per-key mode returns ``(key, position, query, answer)``
        tuples.  Dead workers are detected (and recovered) here and in
        :meth:`submit`, so ingest-only phases still self-heal.
        """
        self._absorb(self._transport.poll())
        if self._ring_gauges:
            for gauge, ratio in zip(
                self._ring_gauges, self._transport.ring_occupancy()
            ):
                gauge.set(ratio)
        if self._watermark_gauges:
            self._update_watermark_gauges()
        if self._merger is not None:
            fresh: List[Any] = self._fresh_answers
            self._fresh_answers = []
        else:
            fresh = self._fresh_per_key
            self._fresh_per_key = []
        return fresh

    def poll_traced(
        self,
    ) -> List[Tuple[Answer, Optional[int]]]:
        """Like :meth:`poll`, pairing each answer with its trace id.

        A global-mode answer is attributed to the trace of the
        submission that contained the record closing its window
        (``None`` for untraced submissions).  Per-key answers carry
        per-key stream positions, which the position→trace map cannot
        resolve, so they are returned untraced.
        """
        fresh = self.poll()
        if self._merger is None or self._ingress is not None:
            # Per-key positions and event-time window ends both live
            # outside the global arrival-position domain the
            # position→trace map indexes, so they return untraced.
            return [(answer, None) for answer in fresh]
        return [
            (answer, self._trace_for_position(answer[0]))
            for answer in fresh
        ]

    def _update_watermark_gauges(self) -> None:
        """Refresh the per-shard watermark-lag gauges (time mode).

        Lag is the event-time distance between the newest timestamp the
        ingress has seen and the end of the last slice the shard has
        acknowledged closing — how far the shard's frontier trails the
        stream, in stream seconds.
        """
        high = self._ingress.high
        if high == -math.inf:
            return
        slice_seconds = self.slice_seconds
        origin = self.origin
        for gauge, handle in zip(
            self._watermark_gauges, self._transport.handles
        ):
            closed_until = origin + handle.watermark * slice_seconds
            gauge.set(max(0.0, high - closed_until))

    @property
    def late_records(self) -> int:
        """Event-time records rejected as late so far (``0`` otherwise)."""
        return (
            self._ingress.late_records if self._ingress is not None else 0
        )

    def event_time_stats(self) -> Optional[Dict[str, Any]]:
        """Event-time progress snapshot, or ``None`` outside time mode.

        Surfaced through the gateway's STATS payload so remote clients
        can watch the watermark advance and late drops accumulate.
        """
        ingress = self._ingress
        if ingress is None:
            return None
        return {
            "watermark": (
                None if ingress.watermark == -math.inf else ingress.watermark
            ),
            "high": None if ingress.high == -math.inf else ingress.high,
            "lateness": ingress.lateness,
            "late_policy": self._late_policy,
            "late_records": ingress.late_records,
            "pending_reorder": len(ingress),
            "slice_seconds": self.slice_seconds,
            "closed_slices": self._router.watermark.value,
        }

    # -- shutdown ---------------------------------------------------

    def close(self, timeout: float = 60.0) -> ServiceResult:
        """Flush, stop every worker, and return the complete result."""
        if self._closed:
            raise ServiceError("service already closed")
        self._closed = True
        ingress = self._ingress
        if ingress is not None:
            # End of stream: every buffered record's timestamp is now
            # final — release them in order, then close through the
            # last occupied slice (the event-time analogue of
            # TimeWindowEngine.finish closing its open slice).
            self._split_released(list(ingress.drain()))
            if ingress.high != -math.inf:
                self._router.watermark.advance(
                    self._merger.clock.slice_of(ingress.high) + 1
                )
        for batch in self._router.flush():
            self._transport.ship(batch)
        self._transport.stop()
        self._absorb(self._transport.drain_until_stopped(timeout))
        elapsed = time.perf_counter() - self._started_at
        shards = tuple(
            ShardStats(
                shard_id=handle.config.shard_id,
                records=handle.records,
                batches=handle.batches,
                busy_seconds=handle.busy_seconds,
                checkpoints=handle.checkpoints,
                restores=handle.restores,
                dropped=handle.dropped,
                stalls=handle.stalls,
                corrupt_checkpoints=handle.corrupt_checkpoints,
                failed=handle.failed,
            )
            for handle in self._transport.handles
        )
        latencies: List[float] = []
        for handle in self._transport.handles:
            latencies.extend(handle.latencies)
        per_key = (
            dict(self._collator.answers)
            if self._collator is not None
            else {}
        )
        answers_emitted = len(self._answers) + sum(
            len(rows) for rows in per_key.values()
        )
        stats = ServiceStats(
            shards=shards,
            records_submitted=self._router.position,
            records_processed=sum(s.records for s in shards),
            dropped_records=sum(s.dropped for s in shards),
            answers_emitted=answers_emitted,
            elapsed_seconds=elapsed,
            batch_latency=maybe_summary(latencies),
            dead_letters=len(self.dead_letters),
            failed_shards=tuple(sorted(self._failed_shards)),
            degraded_keys=tuple(self._degraded_keys.values()),
            transport=self._transport.transport_stats(),
            late_records=self.late_records,
        )
        return ServiceResult(
            answers=list(self._answers),
            per_key=per_key,
            stats=stats,
            dead_letters=list(self.dead_letters.letters),
        )

    def abort(self) -> None:
        """Hard-stop the service, abandoning in-flight work."""
        self._closed = True
        self._transport.terminate()

    # -- introspection ----------------------------------------------

    def shard_pids(self) -> List[Optional[int]]:
        """Worker process ids (``None`` entries on inline transport).

        Exposed for fault-injection tests and operational tooling.
        """
        pids: List[Optional[int]] = []
        for handle in self._transport.handles:
            process = getattr(handle, "process", None)
            pids.append(process.pid if process is not None else None)
        return pids

    def failed_shards(self) -> Dict[int, str]:
        """Shards that exhausted their restart budget, with reasons."""
        return dict(self._failed_shards)

    def transport_stats(self) -> Dict[str, Any]:
        """Live data-plane accounting (also on ``close().stats``).

        Keys: ``data_plane`` (``"shm"`` on the process transport,
        ``"inline"`` on the inline one), ``frames_columnar`` /
        ``frames_pickled`` frame counts, ``frames_spilled`` (data
        frames sent as more than one ring piece), and
        cumulative ``encode_seconds`` /
        ``ring_wait_seconds`` / ``decode_seconds``.
        """
        return self._transport.transport_stats()

    def __enter__(self) -> "AggregationService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close cleanly on success, abort on error."""
        if self._closed:
            return
        if exc_type is None:
            self.close()
        else:
            self.abort()
