"""One monotone watermark model for count- and event-time streams.

A *watermark* is a monotone promise about completeness: once a stream's
watermark reaches ``w``, no record ordered before ``w`` will be accepted
any more, so every window (slice) that ends at or before ``w`` can be
closed and its aggregate emitted.  Count positions are event time with
zero lateness, so both kinds of stream live on one slice timeline and
measure progress in the same unit — *closed slices*:

* count streams advance a :class:`Watermark` with
  ``SliceClock.slices_closed_by(position)`` (the slices fully covered
  by the records routed so far);
* event-time streams advance it with a :class:`BoundedLatenessWatermark`
  value (``max event timestamp seen − allowed lateness``) mapped through
  :meth:`TimeSliceClock.slices_closed_by`.

The two clocks answer the same three questions under the same names —
``slice_of`` (which slice holds this record), ``slices_closed_by`` (how
many slices this much progress closes) and ``cut`` (where a slice ends
in an ascending column) — which is what lets the shard fold, the merge
frontier and the single-node time engine be written once.

Monotonicity is enforced at the type level: :meth:`Watermark.advance`
ignores regressions instead of trusting every caller to pre-compare,
which is what lets a restarted shard worker replay old batches without
ever reporting a watermark older than its checkpoint.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence, Union

from ..errors import InvalidQueryError

__all__ = ["Watermark", "BoundedLatenessWatermark", "TimeSliceClock"]

Ordered = Union[int, float]


class Watermark:
    """A monotone high-water cursor over any totally ordered domain.

    The single invariant is that :attr:`value` never decreases.  The
    router's flush rounds and the per-shard merge frontiers funnel
    through this type so the invariant lives in exactly one place.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Ordered = 0):
        self._value = value

    @property
    def value(self) -> Ordered:
        return self._value

    def advance(self, value: Ordered) -> bool:
        """Raise the watermark to ``value`` if that is an advance.

        Returns ``True`` when the watermark moved; a stale (smaller or
        equal) value is ignored and returns ``False`` — never an error,
        because replayed batches and racing shards legitimately present
        old watermarks.
        """
        if value > self._value:
            self._value = value
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Watermark({self._value!r})"


class BoundedLatenessWatermark(Watermark):
    """An event-time watermark trailing the newest timestamp by a bound.

    ``observe(ts)`` folds one record's event timestamp in; the watermark
    value is ``max timestamp seen − lateness``.  A record is *late* —
    its slice may already be closed — exactly when its timestamp is
    strictly below :attr:`value`; a record at the watermark itself is
    still acceptable.  Monotone because the max is monotone and the
    bound is constant.
    """

    __slots__ = ("lateness", "_high")

    def __init__(self, lateness: float):
        if not (lateness >= 0.0) or not math.isfinite(lateness):
            raise InvalidQueryError(
                f"lateness bound must be finite and >= 0, got {lateness!r}"
            )
        super().__init__(-math.inf)
        self.lateness = float(lateness)
        self._high = -math.inf

    @property
    def high(self) -> float:
        """The newest event timestamp observed so far (``-inf`` if none)."""
        return self._high

    def observe(self, timestamp: float) -> bool:
        """Fold one event timestamp in; returns ``True`` on advance."""
        if timestamp > self._high:
            self._high = timestamp
            return self.advance(timestamp - self.lateness)
        return False

    def is_late(self, timestamp: float) -> bool:
        """Whether ``timestamp`` is strictly behind the watermark.

        A record *at* the watermark is still acceptable — lateness
        requires being strictly below it.
        """
        return timestamp < self.value


class TimeSliceClock:
    """Maps event timestamps to time-slice indexes and back.

    Same verbs as :class:`repro.service.slices.SliceClock`, over
    timestamps instead of arrival positions.  Slice ``k`` covers the
    half-open interval ``[origin + k*g, origin + (k+1)*g)`` for slice
    width ``g``, so a record exactly on a boundary belongs to the
    *next* slice.
    """

    __slots__ = ("slice_seconds", "origin")

    def __init__(self, slice_seconds: float, origin: float = 0.0):
        if not (slice_seconds > 0.0) or not math.isfinite(slice_seconds):
            raise InvalidQueryError(
                f"slice width must be finite and > 0, got {slice_seconds!r}"
            )
        self.slice_seconds = float(slice_seconds)
        self.origin = float(origin)

    def slice_of(self, timestamp: float) -> int:
        """The slice index the record at ``timestamp`` belongs to."""
        return int((timestamp - self.origin) // self.slice_seconds)

    def slices_closed_by(self, watermark: float) -> int:
        """How many slices a watermark at ``watermark`` seconds closes.

        Slice ``k`` closes once no record with timestamp below its end
        ``origin + (k+1)*g`` can arrive — i.e. once the watermark
        reaches that end.  Clamped at zero so a fresh stream (watermark
        still ``-inf``) reports no closed slices instead of a negative
        count.
        """
        if watermark == -math.inf:
            return 0
        return max(0, int((watermark - self.origin) // self.slice_seconds))

    def cut(
        self, column: Sequence[float], index: int, lo: int, hi: int
    ) -> int:
        """Where slice ``index`` ends in ascending ``column[lo:hi]``.

        A timestamp exactly at :meth:`end_time` starts the next slice.
        Same verb as ``SliceClock.cut``.
        """
        return bisect_left(column, self.end_time(index), lo, hi)

    def start_time(self, index: int) -> float:
        """Inclusive start of slice ``index``."""
        return self.origin + index * self.slice_seconds

    def end_time(self, index: int) -> float:
        """The exclusive end timestamp of slice ``index``."""
        return self.origin + (index + 1) * self.slice_seconds
