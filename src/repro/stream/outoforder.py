"""Slightly-out-of-order arrival handling (paper Section 3.1).

"The arriving tuples have to be in-order or slightly out-of-order.  As
long as the out-of-order tuples are within the same partial
aggregation, the final result will not be affected.  If, however, some
tuples fall outside of their partial, inconsistencies in the final
result may arise."

:class:`TimestampReorderBuffer` implements exactly that contract on
one timeline: records may arrive up to ``lateness`` behind the newest
one seen — seconds of event time, or stream positions, which are event
time with integer stamps (:func:`repro.stream.source.reordered`) — and
are re-sequenced before reaching the partial aggregator; anything
later is handled by the late policy.  Commutative operators
additionally allow absorbing late tuples *within* the open partial
without re-sequencing, which :func:`absorbable` checks.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import LateRecordError, OutOfOrderError
from repro.operators.base import AggregateOperator
from repro.stream.watermark import BoundedLatenessWatermark

#: How a :class:`TimestampReorderBuffer` treats a record behind the
#: watermark: ``raise`` surfaces :class:`LateRecordError` to the caller,
#: ``drop`` diverts it to the ``on_late`` handler (a dead-letter sink),
#: ``side_output`` counts it (and still calls ``on_late`` when given)
#: without ever folding it into a closed slice.
LATE_POLICIES = ("raise", "drop", "side_output")

#: Largest magnitude an event timestamp may have.  ``-STAMP_MAX <= t <=
#: STAMP_MAX`` is the one "finite real stamp" test of the event-time
#: layer: ``False`` for NaN and ±inf, ``False`` — never
#: ``OverflowError`` — for an ``int`` no float can hold (Python compares
#: int with float exactly), ``TypeError`` for what is not a real number.
STAMP_MAX = sys.float_info.max

_stamp = itemgetter(0)


def require_finite_stamp(timestamp: Any, watermark: float) -> None:
    """Raise unless ``timestamp`` is a finite real number a float holds.

    A NaN compares ``False`` against both the high mark and the
    watermark, so it would sit in the pending buffer and block the
    release cut forever; ``+inf`` — or an ``int`` beyond the float
    range, whose ``high - lateness`` raises ``OverflowError`` on every
    later call — would wedge the watermark.  None of them is a *late*
    record, so this is not subject to the late policy: it is invalid
    input and always raises, before any state is touched.
    """
    if not (-STAMP_MAX <= timestamp <= STAMP_MAX):
        raise OutOfOrderError(
            f"event timestamp must be finite, got {timestamp!r}",
            position=timestamp,
            watermark=watermark,
        )


def _pairs(rows: Iterable[Any]) -> List[Tuple[Any, Any]]:
    """``rows`` re-tupled; raises naming the first that is not a pair."""
    pairs = []
    for row in rows:
        try:
            timestamp, item = row
        except (TypeError, ValueError):
            raise OutOfOrderError(
                f"event record must be a (timestamp, item) pair, got {row!r}"
            ) from None
        pairs.append((timestamp, item))
    return pairs


class TimestampReorderBuffer:
    """Re-sequence a bounded-lateness *event-time* stream.

    A record may arrive up to ``lateness`` seconds behind the newest
    timestamp seen and still be released in timestamp order.
    Internally a :class:`BoundedLatenessWatermark` tracks
    ``max timestamp − lateness``; records are released strictly below
    the watermark (a record *at* the watermark could still be preceded
    by an equal-timestamp arrival), and an incoming record strictly
    behind the watermark is *late* and handled per ``policy`` (one of
    :data:`LATE_POLICIES`).  A timestamp that is not a finite real
    number, or that precedes ``origin`` (the first slice boundary of
    the windows downstream; ``-inf`` when there is none), is invalid
    rather than late: :class:`OutOfOrderError` under every policy,
    with the buffer untouched.

    Ties on timestamp release in arrival order (pending rows are kept
    sorted by timestamp alone, with stable insertion), so the output
    order is deterministic.
    """

    def __init__(
        self,
        lateness: float,
        policy: str = "raise",
        on_late: Optional[Callable[[float, Any], None]] = None,
        origin: float = float("-inf"),
    ):
        if policy not in LATE_POLICIES:
            raise OutOfOrderError(
                f"unknown late-record policy {policy!r}; "
                f"expected one of {LATE_POLICIES}"
            )
        self.policy = policy
        self._on_late = on_late
        # Clamped so that one chained comparison against ``_origin``
        # and STAMP_MAX is the whole validity test of a timestamp.
        self._origin = max(origin, -STAMP_MAX)
        # Validation (finite, >= 0) lives in the watermark type; the
        # buffer then tracks high/value as plain floats because the hot
        # path cannot afford a property access per record.
        self._lateness = BoundedLatenessWatermark(lateness).lateness
        self._high = float("-inf")
        self._value = float("-inf")
        # Pending ``(timestamp, item)`` rows kept *sorted* by timestamp,
        # equal timestamps in arrival order.  A near-in-order arrival
        # lands at the tail (insort degenerates to append, a batch to
        # one Timsort run merge) and releases peel a prefix, so every
        # structural operation stays in C; a heap would pay a
        # Python-level sift on every single pop.
        self._buffer: List[Tuple[float, Any]] = []
        #: Count of records rejected as late (never folded downstream).
        self.late_records = 0

    @property
    def lateness(self) -> float:
        return self._lateness

    @property
    def watermark(self) -> float:
        """Current event-time watermark (``-inf`` before any record)."""
        return self._value

    @property
    def high(self) -> float:
        """Newest event timestamp observed (``-inf`` before any record)."""
        return self._high

    def __len__(self) -> int:
        return len(self._buffer)

    def _refuse(self, timestamp: Any) -> None:
        """Raise for a timestamp that is not finite or precedes origin."""
        require_finite_stamp(timestamp, self._value)
        raise OutOfOrderError(
            f"timestamp {timestamp} precedes the origin {self._origin}",
            position=timestamp,
            watermark=self._origin,
        )

    def push_into(
        self, timestamp: float, item: Any, out: List[Tuple[float, Any]]
    ) -> None:
        """Accept one record; append every record this arrival releases.

        The allocation-free twin of :meth:`push` for per-record hot
        loops: released ``(timestamp, item)`` pairs are appended to
        ``out`` instead of travelling through a generator.  Released
        records come out in ``(timestamp, arrival)`` order and are
        final: their slices may close as soon as the caller observes
        the new :attr:`watermark`.

        Raises:
            OutOfOrderError: for a timestamp that is not a finite real
                number or precedes ``origin``, regardless of the late
                policy; the buffer is untouched.
        """
        if not (self._origin <= timestamp <= STAMP_MAX):
            self._refuse(timestamp)
        buffer = self._buffer
        if timestamp > self._high:
            self._high = timestamp
            value = timestamp - self._lateness
            if value > self._value:
                self._value = value
            buffer.append((timestamp, item))
        elif timestamp < self._value:
            self.late_records += 1
            if self.policy == "raise":
                raise LateRecordError(timestamp, self._value, self._lateness)
            if self._on_late is not None:
                self._on_late(timestamp, item)
            return
        else:
            # Right of every equal timestamp: ties keep arrival order.
            insort(buffer, (timestamp, item), key=_stamp)
        self._release_into(out)

    def _release_into(self, out: List[Tuple[float, Any]]) -> None:
        """Move every record strictly behind the watermark to ``out``."""
        buffer = self._buffer
        value = self._value
        if buffer and buffer[0][0] < value:
            cut = bisect_left(buffer, value, key=_stamp)
            out += buffer[:cut]
            del buffer[:cut]

    def push_many_into(
        self,
        records: Iterable[Tuple[float, Any]],
        out: List[Tuple[float, Any]],
    ) -> None:
        """Accept a batch of ``(timestamp, item)`` records at once.

        The watermark advances at *batch* granularity — the periodic
        watermark of stream-processing practice, where per-record
        generation is a pathological special case: every record of the
        call is judged against the watermark as of the *previous*
        call, so disorder that per-record :meth:`push_into` would
        reject at the bound's edge may still be accepted here, never
        the reverse.  Accepted rows merge into the pending buffer with
        one stable sort (pending rows first, so equal timestamps still
        release in arrival order), the high mark and watermark advance
        once, and one prefix — everything strictly behind the new
        watermark — is appended to ``out``.  Release order and the
        bounded-lateness guarantee are :meth:`push_into`'s.

        All or nothing.  The whole batch is proven before anything is
        touched — every row an exact 2-tuple, every timestamp a finite
        real number at or after ``origin`` — in C-level passes; only a
        batch that fails the proof is scanned in Python, to name the
        first offender in arrival order.  A malformed row, an invalid
        timestamp, or a late row under the ``raise`` policy (counted
        in :attr:`late_records`) raises with buffer, high mark and
        watermark exactly as they were and nothing appended to
        ``out``: feed the batch's clean prefix again and nothing is
        lost.  Under ``drop``/``side_output`` the late rows are
        counted and handed to ``on_late`` in arrival order, then the
        rest merges.
        """
        rows = records if type(records) is list else list(records)
        count = len(rows)
        if not count:
            return
        if list(map(type, rows)).count(tuple) != count:
            rows = _pairs(rows)
        try:
            stamps = [timestamp for timestamp, _ in rows]
        except ValueError:
            _pairs(rows)  # raises, naming the tuple that is not a pair
            raise
        try:
            # Pending rows go first: the stable sort keeps equal
            # timestamps in arrival order.  A finite sum rules out NaN
            # and ±inf, which makes that sort a total order; its two
            # ends then bound every timestamp (pending rows are never
            # below the watermark or the origin).
            merged = self._buffer + rows
            merged.sort(key=_stamp)
            proven = (
                -STAMP_MAX <= sum(stamps) <= STAMP_MAX
                and max(self._origin, self._value) <= merged[0][0]
                and merged[-1][0] <= STAMP_MAX
            )
        except (TypeError, OverflowError):  # mixed types; huge int + float
            proven = False
        if not proven:
            rows = self._screen(rows)
            if not rows:
                return
            merged = sorted(self._buffer + rows, key=_stamp)
        self._buffer = merged
        high = merged[-1][0]
        if high > self._high:
            self._high = high
            value = high - self._lateness
            if value > self._value:
                self._value = value
        self._release_into(out)

    def _screen(
        self, rows: List[Tuple[float, Any]]
    ) -> List[Tuple[float, Any]]:
        """The Python pass over a batch the C-level proof did not clear.

        Raises for the first invalid or (``raise`` policy) late row in
        arrival order before anything is counted; otherwise counts the
        late rows, hands them to ``on_late`` and returns the rest.
        """
        watermark = self._value
        origin = self._origin
        accepted, late = [], []
        for row in rows:
            timestamp = row[0]
            if not (origin <= timestamp <= STAMP_MAX):
                self._refuse(timestamp)
            if timestamp < watermark:
                if self.policy == "raise":
                    self.late_records += 1
                    raise LateRecordError(
                        timestamp, watermark, self._lateness
                    )
                late.append(row)
            else:
                accepted.append(row)
        self.late_records += len(late)
        if self._on_late is not None:
            for timestamp, item in late:
                self._on_late(timestamp, item)
        return accepted

    def push(self, timestamp: float, item: Any) -> Iterator[Tuple[float, Any]]:
        """Accept one record; yield every record this arrival releases.

        A late record under the ``raise`` policy raises at the call
        itself (the releases are computed eagerly); iterate the result
        for the re-sequenced records.
        """
        out: List[Tuple[float, Any]] = []
        self.push_into(timestamp, item, out)
        return iter(out)

    def drain(self) -> Iterator[Tuple[float, Any]]:
        """Release everything still buffered (end of stream)."""
        buffer, self._buffer = self._buffer, []
        return iter(buffer)


def absorbable(
    operator: AggregateOperator, lateness: int, open_partial_length: int
) -> bool:
    """Whether a late tuple can be folded into the open partial.

    This is the paper's "within the same partial aggregation" case: the
    tuple belongs somewhere inside the partial currently accumulating.
    Folding it at the current position is only order-safe for
    commutative operators.
    """
    return operator.commutative and lateness < open_partial_length
