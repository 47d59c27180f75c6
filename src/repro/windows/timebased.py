"""Time-based windows (paper Section 1).

"ACQs are typically associated with a range (r) and a slide (s) ...
which can be either count or time-based."  The evaluation uses
count-based windows throughout; this module supplies the time-based
variant as the natural extension: ranges and slides are durations,
tuples carry timestamps, and the stream is cut into uniform *time
slices* whose length is the GCD of all durations.

The reduction to the count-based machinery is exact:

* every time slice becomes one partial aggregate — including **empty
  slices**, which emit the operator identity (this is what keeps the
  number of partials per window constant, so the count-based final
  aggregators apply unchanged);
* a time query of range ``r`` and slide ``s`` becomes a count query of
  ``r/g`` partials range and ``s/g`` partials slide, where ``g`` is
  the slice duration.

Durations are validated to be exact multiples of a configurable
resolution (milliseconds by default) so the GCD arithmetic stays in
integers — float durations such as 0.1 s are handled exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Any, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import InvalidQueryError, OutOfOrderError
from repro.kernels import as_sequence, kernel_for
from repro.operators.base import AggregateOperator
from repro.operators.views import partial_view
from repro.windows.query import Query

#: Default duration resolution: 1 millisecond.
DEFAULT_RESOLUTION = 0.001

#: ``repro.stream.outoforder.STAMP_MAX`` (this package initialises
#: before ``repro.stream``, so the hot guards keep their own copy).
_STAMP_MAX = sys.float_info.max

#: One emitted result: (window end timestamp, query, answer).
TimeAnswer = Tuple[float, "TimeQuery", Any]


def _to_ticks(seconds: float, resolution: float, what: str) -> int:
    """Convert a duration to integer resolution ticks, exactly."""
    ticks = seconds / resolution
    rounded = round(ticks)
    if rounded < 1 or not math.isclose(ticks, rounded, rel_tol=1e-9):
        raise InvalidQueryError(
            f"{what} of {seconds}s is not a positive multiple of the "
            f"{resolution}s resolution"
        )
    return rounded


@dataclass(frozen=True)
class TimeQuery:
    """A time-based ACQ: ``range_seconds`` reported every
    ``slide_seconds``.

    Attributes:
        range_seconds: Window duration.
        slide_seconds: Reporting period.
        name: Optional label; defaults to ``q{range}s/{slide}s``.
    """

    range_seconds: float
    slide_seconds: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.range_seconds <= 0:
            raise InvalidQueryError(
                f"time range must be positive, got {self.range_seconds}"
            )
        if self.slide_seconds <= 0:
            raise InvalidQueryError(
                f"time slide must be positive, got {self.slide_seconds}"
            )
        if not self.name:
            object.__setattr__(
                self,
                "name",
                f"q{self.range_seconds:g}s/{self.slide_seconds:g}s",
            )

    def to_count_query(
        self, slice_seconds: float, resolution: float = DEFAULT_RESOLUTION
    ) -> Query:
        """The equivalent count-based query over time-slice partials."""
        slice_ticks = _to_ticks(slice_seconds, resolution, "slice")
        range_ticks = _to_ticks(self.range_seconds, resolution, "range")
        slide_ticks = _to_ticks(self.slide_seconds, resolution, "slide")
        if range_ticks % slice_ticks or slide_ticks % slice_ticks:
            raise InvalidQueryError(
                f"{self.name}: range/slide are not multiples of the "
                f"{slice_seconds}s slice"
            )
        return Query(
            range_ticks // slice_ticks,
            slide_ticks // slice_ticks,
            name=self.name,
        )


def slice_duration(
    queries: Sequence[TimeQuery],
    resolution: float = DEFAULT_RESOLUTION,
) -> float:
    """The shared time-slice length: GCD of all ranges and slides.

    This is the time-based analogue of the Panes pane (Section 2.1):
    every window start and end lands on a slice boundary.

    Raises:
        InvalidQueryError: an empty set, a duration off the resolution
            grid, or a query that is not a :class:`TimeQuery` (a count
            query belongs to ``StreamEngine`` or a ``mode="global"`` /
            ``"per_key"`` service).
    """
    if not queries:
        raise InvalidQueryError("time query set must not be empty")
    ticks = []
    for query in queries:
        if not isinstance(query, TimeQuery):
            raise InvalidQueryError(
                f"{query!r} is not a TimeQuery; run count queries on a "
                "StreamEngine or a service in mode='global' or 'per_key'"
            )
        ticks.append(_to_ticks(query.range_seconds, resolution, "range"))
        ticks.append(_to_ticks(query.slide_seconds, resolution, "slide"))
    return reduce(math.gcd, ticks) * resolution


class TimeFinalStage:
    """The time→count reduction: slice partials in, time answers out.

    Maps every time query to its count query over uniform slices of
    :func:`slice_duration` seconds, runs those through one
    :class:`~repro.core.multiquery.SharedSlickDeque` over *partials*
    (a :func:`~repro.operators.views.partial_view`), and translates each
    count answer back to ``(window_end_timestamp, time_query, answer)``.
    The single-node :class:`TimeWindowEngine` and the sharded
    :class:`~repro.service.merge.EventTimeMerger` each hold one; they
    differ only in how a slice's partial comes to be.
    """

    def __init__(
        self,
        queries: Sequence[TimeQuery],
        operator: AggregateOperator,
        origin: float,
        resolution: float,
        technique: str,
    ):
        from repro.core.multiquery import SharedSlickDeque

        self.queries = tuple(queries)
        self.operator = operator
        self.origin = origin
        self.slice_seconds = slice_duration(self.queries, resolution)
        self._count_to_time = {
            query.to_count_query(self.slice_seconds, resolution): query
            for query in self.queries
        }
        self._engine = SharedSlickDeque(
            list(self._count_to_time), partial_view(operator), technique
        )

    def close_slice(self, partial: Any) -> List[TimeAnswer]:
        """Feed the next slice's partial; return the answers it releases."""
        return self._translate(self._engine.feed(partial))

    def close_slices(self, partials: Sequence[Any]) -> List[TimeAnswer]:
        """:meth:`close_slice` over a run of consecutive slices.

        One :meth:`SharedSlickDeque.feed_many
        <repro.core.multiquery.SharedSlickDeque.feed_many>` for the
        whole run; the answers, by ``repr``, of closing them one by one.
        """
        return self._translate(self._engine.feed_many(partials))

    def _translate(self, count_answers) -> List[TimeAnswer]:
        """Count answers over slices → ``(window end, query, answer)``."""
        origin = self.origin
        slice_seconds = self.slice_seconds
        count_to_time = self._count_to_time
        lower = self.operator.lower
        return [
            (
                origin + position * slice_seconds,
                count_to_time[query],
                lower(raw),
            )
            for position, query, raw in count_answers
        ]


class TimeWindowEngine:
    """Run time-based ACQs over a sorted timestamped stream.

    Tuples are ``(timestamp, value)`` with non-decreasing finite
    timestamps at or after ``origin`` (anything else raises
    :class:`OutOfOrderError` before any state changes; route a
    disordered stream through
    :class:`~repro.stream.engine.EventTimeEngine` instead).  Slice
    ``k`` covers ``[origin + k·g, origin + (k+1)·g)``: records fold
    into the open slice's accumulator, a record in a later slice closes
    every slice before it — the identity partial for slices no record
    fell into, so partials stay aligned with wall-clock boundaries —
    and each closed partial goes through the :class:`TimeFinalStage`.
    Answers are ``(window_end_timestamp, query, answer)`` triples.
    """

    def __init__(
        self,
        queries: Sequence[TimeQuery],
        operator: AggregateOperator,
        origin: float = 0.0,
        resolution: float = DEFAULT_RESOLUTION,
        technique: str = "pairs",
    ):
        # Deferred import: repro.windows initializes before repro.stream
        # during package import, so binding the clock at call time
        # keeps the layering acyclic.
        from repro.stream.watermark import TimeSliceClock

        self._final = TimeFinalStage(
            queries, operator, origin, resolution, technique
        )
        self.queries = self._final.queries
        self.operator = operator
        self.origin = origin
        self.slice_seconds = self._final.slice_seconds
        self._clock = TimeSliceClock(self.slice_seconds, origin)
        self._open_index = 0
        self._accumulator = operator.identity
        # Nothing older than this is accepted: the origin, then the
        # newest accepted timestamp (a sorted stream is its own
        # watermark).
        self._newest = origin
        # An empty stream closes no slice, so finish() answers nothing.
        self._accepted_any = False

    def _refuse(self, timestamp: float, newest: float) -> None:
        """Raise for a timestamp that failed the ordering check."""
        from repro.stream.outoforder import require_finite_stamp

        require_finite_stamp(timestamp, newest)
        raise OutOfOrderError(
            f"timestamp {timestamp} precedes {newest}",
            position=timestamp,
            watermark=newest,
        )

    def _close_through(self, index: int) -> List[TimeAnswer]:
        """Close the open slice and the empty ones before ``index``."""
        close = self._final.close_slice
        identity = self.operator.identity
        answers = close(self._accumulator)
        for _ in range(self._open_index + 1, index):
            answers += close(identity)
        self._open_index = index
        self._accumulator = identity
        return answers

    def feed(self, timestamp: float, value: Any) -> List[TimeAnswer]:
        """Consume one timestamped tuple; return released answers.

        A timestamp that is non-finite, older than the newest accepted
        one or before ``origin`` raises :class:`OutOfOrderError`, and a
        value the operator refuses raises from ``lift``/⊕ — either way
        with the engine exactly as it was.
        """
        if not (self._newest <= timestamp <= _STAMP_MAX):
            self._refuse(timestamp, self._newest)
        operator = self.operator
        index = self._clock.slice_of(timestamp)
        closes = index > self._open_index
        accumulator = operator.combine(
            operator.identity if closes else self._accumulator,
            operator.lift(value),
        )
        answers = self._close_through(index) if closes else []
        self._accumulator = accumulator
        self._newest = timestamp
        self._accepted_any = True
        return answers

    def feed_many(
        self, records: Iterable[Tuple[float, Any]]
    ) -> List[TimeAnswer]:
        """Consume a batch of sorted ``(timestamp, value)`` pairs.

        Same answers as :meth:`feed` per record, bit for bit, but the
        batch is cut into same-slice runs with
        :meth:`~repro.stream.watermark.TimeSliceClock.cut` and all of
        them fold in one segmented kernel call
        (:meth:`repro.kernels.BatchKernel.fold_runs`) — the step the
        sharded service's shard fold takes — and every slice the call
        closes, empty ones as the identity, is closed by one
        :meth:`TimeFinalStage.close_slices`.

        All or nothing: every timestamp is checked (one C-level proof
        per call; a Python scan only names an offender) and every run
        is folded before any state is written.  Timestamps must be
        finite, non-decreasing within the call and against the newest
        accepted one, and not before ``origin`` —
        :class:`OutOfOrderError` otherwise — and a value the operator
        refuses raises from the fold; either way the engine is exactly
        as it was before the call, so the batch's clean prefix can be
        fed again and releases every answer it would have.
        """
        records = as_sequence(records)
        total = len(records)
        if not total:
            return []
        timestamps = [timestamp for timestamp, _ in records]
        values = [value for _, value in records]
        newest = self._newest
        try:
            # A finite sum rules out NaN and ±inf (``sorted`` is blind
            # to a NaN: every comparison with it is False); an ordered
            # column then lies between its two ends.
            proven = (
                -_STAMP_MAX <= sum(timestamps) <= _STAMP_MAX
                and sorted(timestamps) == timestamps
                and newest <= timestamps[0]
                and timestamps[-1] <= _STAMP_MAX
            )
        except (TypeError, OverflowError):  # mixed types; huge int + float
            proven = False
        if not proven:  # the Python scan only names the offender
            for timestamp in timestamps:
                if not (newest <= timestamp <= _STAMP_MAX):
                    self._refuse(timestamp, newest)
                newest = timestamp
        slice_of = self._clock.slice_of
        cut = self._clock.cut
        indexes: List[int] = []
        bounds = [0]
        start = 0
        while start < total:
            index = slice_of(timestamps[start])
            start = cut(timestamps, index, start + 1, total)
            indexes.append(index)
            bounds.append(start)
        # Only the first run can land in the slice already open.
        operator = self.operator
        identity = operator.identity
        open_index = self._open_index
        accumulator = self._accumulator
        folded = kernel_for(operator).fold_runs(
            values,
            bounds,
            identity if indexes[0] > open_index else accumulator,
        )
        # Every slice the call closes, empty ones as the identity, goes
        # to the final stage in one run.
        closed: List[Any] = []
        for index, run in zip(indexes, folded):
            if index > open_index:
                closed.append(accumulator)
                closed += [identity] * (index - open_index - 1)
                open_index = index
            accumulator = run
        answers = self._final.close_slices(closed) if closed else []
        self._open_index = open_index
        self._accumulator = accumulator
        self._newest = timestamps[-1]
        self._accepted_any = True
        return answers

    def finish(self) -> List[TimeAnswer]:
        """Close the open slice and return its answers.

        A stream that never had a record accepted answers nothing.
        """
        if not self._accepted_any:
            return []
        return self._close_through(self._open_index + 1)

    def run(
        self, stream: Iterable[Tuple[float, Any]]
    ) -> Iterator[TimeAnswer]:
        """Stream ``(timestamp, value)`` pairs; yield every answer."""
        for timestamp, value in stream:
            yield from self.feed(timestamp, value)
        yield from self.finish()
