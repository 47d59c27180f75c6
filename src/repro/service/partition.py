"""Key-partitioned routing with micro-batch framing and load shedding.

The ingestion front of the sharded service: records enter keyed, get a
global 1-based position, and are hash-partitioned by key into per-shard
buffers.  Buffers are framed into :class:`Batch` messages in *flush
rounds* — whenever any shard's buffer reaches the configured batch size
(or at end of stream) every shard's buffer is framed simultaneously, so
each round carries one uniform slice **watermark** to all shards.  That
uniformity is what lets the cross-shard merger finalise slices without
per-shard punctuations.

Load shedding lives here as pure, process-free helpers
(:func:`drop_records`, :func:`thin_batch`); the transport layer decides
*when* to shed (its queue is full) and these decide *what* to shed,
keeping an exact dropped-record count either way.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.service.slices import SliceClock
from repro.stream.watermark import Watermark

#: Backpressure policies for a full shard queue: ``block`` waits for
#: capacity (lossless), ``drop`` sheds the whole batch's records,
#: ``sample`` keeps every other record and ships the thinned batch.
BACKPRESSURE_POLICIES = ("block", "drop", "sample")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash(key: Any) -> int:
    """64-bit FNV-1a over ``repr(key)`` — stable across processes.

    The builtin ``hash`` is salted per process for strings (PEP 456),
    which would scatter a key to different shards across restarts and
    break checkpoint recovery; this hash is deterministic for any key
    with a stable ``repr`` (strings, numbers, tuples thereof).
    """
    value = _FNV_OFFSET
    for byte in repr(key).encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
    return value


def shard_of(key: Any, num_shards: int) -> int:
    """The shard owning ``key`` under stable hash partitioning."""
    return stable_hash(key) % num_shards


@dataclass
class Batch:
    """One framed micro-batch for one shard.

    Attributes:
        shard: Destination shard index.
        seq: Per-shard batch sequence number, 1-based and gapless in
            ship order — the unit of acknowledgement and replay.
        watermark: Slices fully closed by the global stream at frame
            time (every record of those slices has been framed, across
            all shards of the same flush round).
        positions: Global 1-based positions of the records — an
            ``array('q')`` from the router (typed end to end, so the
            shm plane encodes it with a plain buffer copy), though any
            integer sequence is accepted.
        keys: Record keys, parallel to ``positions``.
        values: Record payloads, parallel to ``positions`` — a plain
            list from the router, whatever shape the records arrived in.
        traces: Per-record trace ids, parallel to ``positions`` — or
            ``None`` (the common case) when no record of the batch is
            traced, so untraced batches pay nothing for the field.
        timestamps: Per-record event timestamps in seconds, parallel to
            ``positions`` — an ``array('d')`` from the router's
            event-time mode, ``None`` on the count-based path, so
            arrival-ordered batches pay nothing for the column.  In
            event-time mode ``watermark`` counts closed *time* slices
            (derived from the bounded-lateness event watermark) rather
            than count slices.
    """

    shard: int
    seq: int
    watermark: int
    positions: Sequence[int] = field(default_factory=list)
    keys: List[Any] = field(default_factory=list)
    values: Sequence[Any] = field(default_factory=list)
    traces: Optional[List[Optional[int]]] = None
    timestamps: Optional[Sequence[float]] = None

    def __len__(self) -> int:
        """Number of records framed in this batch."""
        return len(self.positions)


def drop_records(batch: Batch) -> Tuple[Batch, int]:
    """Shed every record, keeping the batch as a watermark carrier.

    The empty frame must still be delivered — sequence numbers stay
    gapless and the watermark keeps the cross-shard merge progressing —
    but it occupies one queue slot with near-zero payload.
    """
    dropped = len(batch)
    return Batch(batch.shard, batch.seq, batch.watermark), dropped


def thin_batch(batch: Batch, keep_every: int = 2) -> Tuple[Batch, int]:
    """Deterministically keep every ``keep_every``-th record.

    Used by the ``sample`` backpressure policy: under pressure the
    batch is halved (by default) instead of fully shed, trading answer
    fidelity for bounded queue growth without losing batch framing.
    """
    if keep_every < 2:
        raise ServiceError(
            f"thin_batch keep_every must be >= 2, got {keep_every}"
        )
    kept = slice(None, None, keep_every)
    thinned = Batch(
        batch.shard,
        batch.seq,
        batch.watermark,
        batch.positions[kept],
        batch.keys[kept],
        batch.values[kept],
        batch.traces[kept] if batch.traces is not None else None,
        batch.timestamps[kept] if batch.timestamps is not None else None,
    )
    return thinned, len(batch) - len(thinned)


class Router:
    """Assign global positions and frame per-shard micro-batches.

    Args:
        num_shards: Number of shard partitions.
        batch_size: Records buffered per shard before a flush round is
            triggered.
        clock: The service's :class:`SliceClock` in global-merge mode;
            ``None`` in per-key mode (no watermarks needed, empty
            batches are skipped) and in event-time mode, where the
            service advances :attr:`watermark` externally from its
            bounded-lateness event watermark.
        event_time: When true the router buffers a per-shard f64
            timestamp column and batches carry it; records must enter
            through :meth:`put_event`.
    """

    def __init__(
        self,
        num_shards: int,
        batch_size: int,
        clock: Optional[SliceClock] = None,
        event_time: bool = False,
    ):
        if num_shards < 1:
            raise ServiceError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if batch_size < 1:
            raise ServiceError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.num_shards = num_shards
        self.batch_size = batch_size
        self._clock = clock
        self.event_time = event_time
        #: The stream's slice watermark as a single monotone cursor:
        #: count mode advances it from ``clock.slices_closed_by`` at
        #: flush time; event-time mode advances it externally (the
        #: service maps its bounded-lateness event watermark through a
        #: :class:`~repro.stream.watermark.TimeSliceClock`).  Either
        #: way :meth:`flush` stamps ``watermark.value`` on the round.
        self.watermark = Watermark(0)
        self._timestamps: Optional[List[array]] = (
            [array("d") for _ in range(num_shards)] if event_time else None
        )
        # Positions are always i64-typed (they are stream indices), so
        # the shm encoder ships them with one buffer copy; values are
        # lists, which that encoder type-checks in one C-level pass.
        self._positions: List[array] = [
            array("q") for _ in range(num_shards)
        ]
        self._keys: List[List[Any]] = [[] for _ in range(num_shards)]
        self._values: List[List[Any]] = [[] for _ in range(num_shards)]
        # Per-shard trace columns exist only once a traced record has
        # been routed; until then a record pays a single flag check.
        self._traces: Optional[List[List[Optional[int]]]] = None
        self._seqs = [0] * num_shards
        self._sent_watermarks = [0] * num_shards
        # Framed batches not yet handed to a caller: only a call that
        # raised mid-stream leaves any, for the next call to return.
        self._framed: List[Batch] = []
        # Key -> shard memo for the ingestion hot loop: ``stable_hash``
        # walks ``repr(key)`` byte by byte, so re-hashing every record
        # of a hot key dominates routing cost.  The memo is exact (the
        # hash is deterministic) and its footprint matches
        # ``seen_keys``, which already retains every distinct key.
        self._shard_cache: dict = {}
        #: Distinct keys routed to each shard so far — consulted when a
        #: shard fails, to report exactly whose answers are degraded.
        self.seen_keys: List[set] = [set() for _ in range(num_shards)]
        #: Global positions assigned so far (== records submitted).
        self.position = 0
        #: Flush rounds completed.
        self.flush_rounds = 0

    def shard_for(self, key: Any) -> int:
        """The shard owning ``key`` (does not record the key as seen)."""
        shard = self._shard_cache.get(key)
        return shard_of(key, self.num_shards) if shard is None else shard

    def _admit(self, key: Any) -> int:
        """Memoise a first-seen key's shard and record the key."""
        shard = self._shard_cache[key] = shard_of(key, self.num_shards)
        self.seen_keys[shard].add(key)
        return shard

    def _trace_columns(self) -> List[List[Optional[int]]]:
        """The per-shard trace columns, materialised on first use with
        the still-buffered untraced records backfilled as ``None``."""
        if self._traces is None:
            self._traces = [
                [None] * len(positions) for positions in self._positions
            ]
        return self._traces

    def _route(
        self,
        records: Iterable[Tuple[Any, Any]],
        trace: Optional[int] = None,
        timestamp: Optional[float] = None,
    ) -> List[Batch]:
        """The routing core: one pass over ``(key, value)`` records.

        Per record: one memoised shard lookup, the next global
        position, one append per column, and a flush round the moment
        its shard's buffer reaches ``batch_size`` — so batches depend
        only on the record stream, never on how it was cut into calls.
        ``trace`` and ``timestamp`` apply to every record of the call.

        A record that cannot be routed (not a 2-tuple, unhashable key)
        raises before any buffer is touched for it: every record
        before it is routed, none after it is consumed,
        :attr:`position` counts exactly the routed ones, and rounds
        framed earlier in the call are returned by the next call (or
        :meth:`flush`) ahead of its own.
        """
        if (timestamp is None) is not (self._timestamps is None):
            raise ServiceError(
                "put_event requires a Router in event-time mode, and "
                "such a Router accepts nothing else"
            )
        cached = self._shard_cache.get
        positions, keys, values = self._positions, self._keys, self._values
        batch_size = self.batch_size
        traced = trace is not None or self._traces is not None
        position = self.position
        try:
            for key, value in records:
                shard = cached(key)
                if shard is None:
                    shard = self._admit(key)
                if timestamp is not None:
                    self._timestamps[shard].append(timestamp)
                if traced:
                    self._trace_columns()[shard].append(trace)
                position += 1
                column = positions[shard]
                column.append(position)
                keys[shard].append(key)
                values[shard].append(value)
                if len(column) >= batch_size:
                    self.position = position
                    self._frame_round()
        finally:
            self.position = position
        return self._take_framed()

    def put(
        self, key: Any, value: Any, trace: Optional[int] = None
    ) -> List[Batch]:
        """Route one record; return the batches a full buffer released.

        ``trace`` attributes the record to a telemetry trace (see
        :mod:`repro.telemetry.trace`); the id travels on the record's
        batch so shard outputs can echo which traces they served.
        """
        return self._route(((key, value),), trace)

    def put_event(
        self,
        key: Any,
        value: Any,
        timestamp: float,
        trace: Optional[int] = None,
    ) -> List[Batch]:
        """Route one event-timestamped record (event-time mode only).

        The caller (the service's reorder-buffer ingress) must present
        records in released — i.e. timestamp — order per stream, which
        keeps every shard's buffered timestamp column ascending; the
        shard side relies on that to close time slices with a bisect.
        """
        return self._route(((key, value),), trace, timestamp)

    def put_many(
        self,
        records: Iterable[Tuple[Any, Any]],
        trace: Optional[int] = None,
    ) -> List[Batch]:
        """Route ``(key, value)`` pairs: positions, flush rounds and
        watermarks are exactly those of :meth:`put` per record; see
        :meth:`_route` for what a malformed record leaves behind.

        Any iterable of pairs is one pass of the same loop — a row
        list, or the wire's :class:`~repro.net.protocol.RecordColumns`
        view, which iterates as its rows (a C-level ``zip`` of the key
        and value columns); a ``SUBMIT_COLUMN`` frame arrives as rows
        of its one key.  There is deliberately no second, column-wise
        routing core behind it: pre-resolving a batch's distinct keys
        and typed value buffers measured no faster than this loop, and
        a vectorised partition slower (``docs/performance.md``).
        """
        return self._route(records, trace)

    def flush(self) -> List[Batch]:
        """Frame every shard's buffer into batches (one flush round).

        In global-merge mode (count- or event-time) every shard
        receives a frame carrying the round's watermark — an empty
        frame when the shard has no buffered records but the watermark
        advanced — so slice finalisation never stalls on an idle
        shard.  In per-key mode empty frames carry no information and
        are skipped.
        """
        self._frame_round()
        return self._take_framed()

    def _take_framed(self) -> List[Batch]:
        framed, self._framed = self._framed, []
        return framed

    def _frame_round(self) -> None:
        if self._clock is not None:
            self.watermark.advance(
                self._clock.slices_closed_by(self.position)
            )
        watermark = self.watermark.value
        merged = self._clock is not None or self.event_time
        traces, stamps = self._traces, self._timestamps
        framed = len(self._framed)
        for shard in range(self.num_shards):
            buffered = self._positions[shard]
            if not buffered:
                if not merged or self._sent_watermarks[shard] == watermark:
                    continue
            self._seqs[shard] += 1
            self._framed.append(
                Batch(
                    shard,
                    self._seqs[shard],
                    watermark,
                    buffered,
                    self._keys[shard],
                    self._values[shard],
                    (traces[shard] or None) if traces is not None else None,
                    stamps[shard] if stamps is not None else None,
                )
            )
            self._sent_watermarks[shard] = watermark
            self._positions[shard] = array("q")
            self._keys[shard] = []
            self._values[shard] = []
            if stamps is not None:
                stamps[shard] = array("d")
            if traces is not None:
                traces[shard] = []
        if len(self._framed) > framed:
            self.flush_rounds += 1
