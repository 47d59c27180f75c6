"""Micro-batch framing for the sharded service, and load shedding.

The ingestion front of the sharded service: records get a global
1-based position and are framed into :class:`Batch` messages, one
shard each.  How a record finds its shard depends on the mode:

* **global and time mode** — the :class:`Router` is a *frame
  splitter*.  A call's records are cut into contiguous
  ``batch_size``-record frames, dealt round-robin over the live shards,
  so a frame's positions are a ``range``.  No key is read: a shard
  turns a frame into pieces keyed by slice and first position, and the
  merger combines a slice's pieces in position order, so any deal of
  contiguous frames gives the single-process answers.
* **per-key mode** — records are hash-partitioned by key into
  per-shard buffers, framed in *flush rounds* whenever one shard's
  buffer reaches ``batch_size``.

Every global- or time-mode frame carries a slice **watermark**: how
many slices are closed for its shard, because every record of theirs
has been framed.  At the end of each call every live shard whose sent
watermark lags gets one watermark-only carrier, so the cross-shard
merger finalises slices without per-shard punctuations.

Load shedding lives here as pure, process-free helpers
(:func:`drop_records`, :func:`thin_batch`); the transport layer decides
*when* to shed (its queue is full) and these decide *what* to shed,
keeping an exact dropped-record count either way.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.stream.watermark import TimeSliceClock, Watermark

#: Backpressure policies for a full shard queue: ``block`` waits for
#: capacity (lossless), ``drop`` sheds the whole batch's records,
#: ``sample`` keeps every other record and ships the thinned batch.
BACKPRESSURE_POLICIES = ("block", "drop", "sample")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

_key_of = itemgetter(0)
_value_of = itemgetter(1)


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
        watermark: Slices this shard has been sent every record of, as
            of this batch.
        positions: Global 1-based positions of the records, ascending:
            a ``range`` for a global- or time-mode frame (stride 2
            after :func:`thin_batch`), an ``array('q')`` in per-key
            mode; any integer sequence is accepted.
        keys: Record keys, parallel to ``positions``.  The parent's
            copy always has them; a global- or time-mode shard gets
            ``None``, because its ring frames carry no key column.
        values: Record payloads, parallel to ``positions`` — a plain
            list from the router, whatever shape the records arrived in.
        traces: Per-record trace ids, parallel to ``positions`` — or
            ``None`` (the common case) when no record of the batch is
            traced, so untraced batches pay nothing for the field.
        timestamps: Per-record event timestamps in seconds, parallel to
            ``positions`` — an ``array('d')`` in time mode, where
            ``watermark`` counts closed *time* slices; ``None``
            otherwise.
    """

    shard: int
    seq: int
    watermark: int
    positions: Sequence[int] = field(default_factory=list)
    keys: Optional[List[Any]] = field(default_factory=list)
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
        batch_size: Records per frame in global and time mode; records
            buffered per shard before a flush round in per-key mode.
        clock: The stream's slice clock: the service's
            :class:`~repro.service.slices.SliceClock` in global mode;
            its :class:`~repro.stream.watermark.TimeSliceClock` in time
            mode, where records enter through :meth:`split` with their
            timestamps and the service advances :attr:`watermark` from
            its bounded-lateness event watermark; ``None`` in per-key
            mode (no watermarks).
    """

    def __init__(
        self,
        num_shards: int,
        batch_size: int,
        clock: Optional[Any] = None,
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
        #: The stream's slice watermark: the newest one framed in
        #: global mode; in time mode the service advances it from its
        #: bounded-lateness event watermark, and frames stamp it capped
        #: by the records still held.
        self.watermark = Watermark(0)
        self._seqs = [0] * num_shards
        #: Global positions assigned so far (== records submitted).
        self.position = 0
        if clock is None:
            self._init_per_key(num_shards)
            return
        #: Shards frames are dealt to; a failed one is retired.
        self._live = list(range(num_shards))
        self._dealt = 0
        self._sent_watermarks = [0] * num_shards
        # The records not yet in a full frame, as columns (a trace of
        # None where untraced; timestamps in time mode only).
        self._held_keys: List[Any] = []
        self._held_values: List[Any] = []
        self._held_traces: List[Optional[int]] = []
        timed = isinstance(clock, TimeSliceClock)
        self._held_stamps = array("d") if timed else None

    # -- global and time mode: the frame splitter ---------------------

    def retire(self, shard: int) -> None:
        """Deal no more frames to a failed shard (global and time mode).

        The last live shard is never retired: frames dealt to it once
        it fails too are shed by the transport.
        """
        live = self._live if self._clock is not None else ()
        if shard in live and len(live) > 1:
            live.remove(shard)

    def split(
        self,
        keys: Sequence[Any],
        values: Sequence[Any],
        traces: Optional[Sequence[Optional[int]]] = None,
        timestamps: Optional[Sequence[float]] = None,
    ) -> List[Batch]:
        """Position one call's columns, frame them, deal the frames.

        The records join those held from earlier calls, and every full
        ``batch_size`` run of them becomes one frame, so framing never
        depends on how the stream was cut into calls (see :meth:`_deal`).
        ``traces`` is a per-record column or ``None``; ``timestamps``
        is required exactly in time mode, ascending across calls (the
        ingress reorder buffer releases in timestamp order).  All or
        nothing: ragged columns or a timestamp that is not a number
        raise with :attr:`position` unchanged and nothing held.
        """
        timed = self._held_stamps is not None
        if self._clock is None or (timestamps is None) is timed:
            raise ServiceError(
                "split takes timestamps exactly in time mode, and a "
                "per-key Router routes by put/put_many"
            )
        count = len(values)
        stamps = None if timestamps is None else array("d", timestamps)
        lengths = (len(keys), len(traces or keys), len(stamps or keys))
        if lengths != (count,) * 3:
            raise ServiceError("split needs columns of one length")
        self.position += count
        self._held_keys += keys
        self._held_values += values
        self._held_traces += [None] * count if traces is None else traces
        if stamps is not None:
            self._held_stamps += stamps
        held = len(self._held_values)
        return self._deal(held - held % self.batch_size)

    def put_many(
        self,
        records: Iterable[Tuple[Any, Any]],
        trace: Optional[int] = None,
    ) -> List[Batch]:
        """Route ``(key, value)`` pairs, all under one optional trace.

        In global mode the records are transposed into columns in
        C-level passes — a wire :class:`~repro.net.protocol.RecordColumns`
        is columns already — and :meth:`split`: all or nothing, so a
        record that is not a pair raises with :attr:`position`
        unchanged and nothing framed.  In per-key mode see
        :meth:`_route` for what a malformed record leaves behind.
        """
        if self._clock is None:
            return self._route(records, trace)
        if self._held_stamps is not None:
            raise ServiceError("a time-mode Router takes timestamps: split")
        if hasattr(records, "key_column"):
            keys, values = records.key_column(), records.values
        else:
            rows = records if type(records) is list else list(records)
            # The getters refuse a non-sequence or a record of under
            # two fields, the length sum one of three or more.
            keys = list(map(_key_of, rows))
            values = list(map(_value_of, rows))
            if sum(map(len, rows)) != 2 * len(rows):
                raise ValueError("every record must be a (key, value) pair")
        traces = None if trace is None else [trace] * len(values)
        return self.split(keys, values, traces)

    def put(
        self, key: Any, value: Any, trace: Optional[int] = None
    ) -> List[Batch]:
        """Route one record; return the batches it released.

        ``trace`` attributes the record to a telemetry trace (see
        :mod:`repro.telemetry.trace`); the id travels on the record's
        batch so shard outputs can echo which traces they served.
        """
        return self.put_many(((key, value),), trace)

    def flush(self) -> List[Batch]:
        """Frame everything buffered (end of stream).

        In global and time mode the held records become one last,
        possibly short, frame.  In per-key mode every shard's buffer
        is framed in one flush round; empty buffers are skipped.
        """
        if self._clock is None:
            self._frame_round()
            return self._take_framed()
        return self._deal(len(self._held_values))

    def _watermark_at(self, first: int, boundary: int) -> int:
        """Slices closed for a shard whose next record is held record
        ``boundary`` or a later one (held record 0 is at ``first``)."""
        stamps = self._held_stamps
        if stamps is None:
            return self._clock.slice_of(first + boundary)
        if boundary < len(stamps):
            return min(
                self.watermark.value, self._clock.slice_of(stamps[boundary])
            )
        return self.watermark.value

    def _deal(self, stop: int) -> List[Batch]:
        """Frame held records ``[0, stop)``, deal them, keep the rest.

        Frames go round-robin over the live shards.  Each carries the
        watermark at the start of its shard's next frame of the call,
        or of the records still held, for its shard's last; then every
        live shard whose sent watermark lags gets one empty carrier.
        """
        keys, values = self._held_keys, self._held_values
        traces, stamps = self._held_traces, self._held_stamps
        live, seqs, sent = self._live, self._seqs, self._sent_watermarks
        first = self.position + 1 - len(values)
        starts = range(0, stop, self.batch_size)
        final = self._watermark_at(first, stop)
        batches = []
        for index, start in enumerate(starts):
            end = min(start + self.batch_size, stop)
            shard = live[(self._dealt + index) % len(live)]
            ahead = index + len(live)
            seqs[shard] += 1
            sent[shard] = (
                self._watermark_at(first, starts[ahead])
                if ahead < len(starts)
                else final
            )
            traced = traces[start:end]
            batches.append(
                Batch(
                    shard,
                    seqs[shard],
                    sent[shard],
                    range(first + start, first + end),
                    keys[start:end],
                    values[start:end],
                    None if traced.count(None) == len(traced) else traced,
                    None if stamps is None else stamps[start:end],
                )
            )
        self._dealt += len(starts)
        self.watermark.advance(final)
        for shard in live:
            if sent[shard] != final:
                seqs[shard] += 1
                sent[shard] = final
                batches.append(Batch(shard, seqs[shard], final))
        del keys[:stop], values[:stop], traces[:stop]
        if stamps is not None:
            del stamps[:stop]
        return batches

    # -- per-key mode: the hash router --------------------------------

    def _init_per_key(self, num_shards: int) -> None:
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

    def shard_for(self, key: Any) -> int:
        """The shard owning ``key`` (per-key mode; does not record the
        key as seen)."""
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
    ) -> List[Batch]:
        """The per-key routing core: one pass over ``(key, value)`` records.

        Per record: one memoised shard lookup, the next global
        position, one append per column, and a flush round the moment
        its shard's buffer reaches ``batch_size`` — so batches depend
        only on the record stream, never on how it was cut into calls.
        ``trace`` applies to every record of the call.

        A record that cannot be routed (not a 2-tuple, unhashable key)
        raises before any buffer is touched for it: every record
        before it is routed, none after it is consumed,
        :attr:`position` counts exactly the routed ones, and rounds
        framed earlier in the call are returned by the next call (or
        :meth:`flush`) ahead of its own.  Per-key answers are per key,
        so a routed prefix is a valid stream on its own.
        """
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

    def _take_framed(self) -> List[Batch]:
        framed, self._framed = self._framed, []
        return framed

    def _frame_round(self) -> None:
        traces = self._traces
        for shard in range(self.num_shards):
            buffered = self._positions[shard]
            if not buffered:
                continue
            self._seqs[shard] += 1
            self._framed.append(
                Batch(
                    shard,
                    self._seqs[shard],
                    0,
                    buffered,
                    self._keys[shard],
                    self._values[shard],
                    (traces[shard] or None) if traces is not None else None,
                )
            )
            self._positions[shard] = array("q")
            self._keys[shard] = []
            self._values[shard] = []
            if traces is not None:
                traces[shard] = []
