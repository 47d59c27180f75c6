"""Reference answers that do not import ``repro``.

Three oracles, one per window family the benchmark runs:

* :class:`CountSumOracle` — count-window ``sum`` as a difference of
  prefix sums;
* :class:`CountMaxOracle` — count-window ``max``.  The run-time
  oracle is the van Herk / Gil-Werman block prefix-suffix scheme (one
  ``itertools.accumulate`` pass per direction), which shares nothing
  with SlickDeque's monotone deque; :func:`brute_force_max` is the
  literal ``max()`` over the raw slice that the self-tests hold it to;
* :class:`EventSumOracle` — event-time ``sum``: bucket the *sorted*
  stream by timestamp, then prefix-sum the buckets.

The benchmark streams are periodic (``inputs.py``), so each oracle is
built from one base block and answers any position of the unbounded
stream from it.

:class:`AnswerChecker` walks the answers a run emitted and counts
mismatched, missing and extra ones; those counts feed ``failed``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Dict, Iterable, List, Sequence, Tuple


class CountSumOracle:
    """``sum`` over the last ``range_size`` tuples of a periodic stream."""

    def __init__(self, base_values: Sequence[int]):
        self._period = len(base_values)
        self._prefix = [0, *accumulate(base_values)]
        self._total = self._prefix[-1]

    def prefix(self, position: int) -> int:
        """Sum of the first ``position`` tuples of the stream."""
        cycles, rest = divmod(position, self._period)
        return cycles * self._total + self._prefix[rest]

    def answer(self, range_size: int, position: int) -> int:
        """The window ``(position - range_size, position]``, clipped at 0."""
        return self.prefix(position) - self.prefix(max(0, position - range_size))


def brute_force_max(values: Sequence[Any], range_size: int, position: int) -> Any:
    """``max()`` over the raw slice — the reference for the references."""
    return max(values[max(0, position - range_size) : position])


def sliding_max(values: Sequence[Any], range_size: int) -> List[Any]:
    """Window maxima for positions ``1..len(values)`` (clipped at 0).

    van Herk / Gil-Werman: cut the stream into blocks of ``range_size``,
    take running maxima left-to-right and right-to-left inside each
    block; a full window spans at most two adjacent blocks and its
    maximum is ``max(suffix[first], prefix[last])``.
    """
    count = len(values)
    prefix: List[Any] = []
    suffix: List[Any] = []
    for start in range(0, count, range_size):
        block = values[start : start + range_size]
        prefix.extend(accumulate(block, max))
        backward = list(accumulate(reversed(block), max))
        backward.reverse()
        suffix.extend(backward)
    answers = prefix[: min(range_size, count)]
    answers.extend(
        map(max, suffix[1 : count - range_size + 1], prefix[range_size:])
    )
    return answers


class CountMaxOracle:
    """``max`` over the last ``range_size`` tuples of a periodic stream."""

    def __init__(self, base_values: Sequence[Any], ranges: Iterable[int]):
        self._period = period = len(base_values)
        unrolled = list(base_values) * 2
        self._answers: Dict[int, List[Any]] = {}
        for range_size in ranges:
            if range_size > period:
                raise ValueError(
                    f"window {range_size} exceeds the {period}-tuple period"
                )
            self._answers[range_size] = sliding_max(unrolled, range_size)

    def answer(self, range_size: int, position: int) -> Any:
        """The window ending at 1-based ``position``."""
        period = self._period
        if position > 2 * period:
            # A full window's content depends only on position mod period.
            position = period + (position - period - 1) % period + 1
        return self._answers[range_size][position - 1]


class EventSumOracle:
    """Event-time ``sum`` over slices of a periodic timestamped stream.

    Args:
        timestamps: One period of event timestamps, any order, relative
            to the period start.
        values: The matching values.
        period_seconds: Event-time length of the period.
        slice_seconds: Slice width (the GCD of the queries' ranges and
            slides); ``period_seconds`` must be a multiple of it.
    """

    def __init__(
        self,
        timestamps: Sequence[float],
        values: Sequence[int],
        period_seconds: float,
        slice_seconds: float,
    ):
        buckets = round(period_seconds / slice_seconds)
        if abs(buckets * slice_seconds - period_seconds) > 1e-9:
            raise ValueError("period is not a whole number of slices")
        sums = [0] * buckets
        for timestamp, value in sorted(zip(timestamps, values)):
            sums[int(timestamp // slice_seconds)] += value
        self.slice_seconds = slice_seconds
        self._slices = CountSumOracle(sums)

    def answer(self, range_seconds: float, end_time: float) -> int:
        """Sum of the records in ``[end_time - range_seconds, end_time)``."""
        return self._slices.answer(
            round(range_seconds / self.slice_seconds),
            round(end_time / self.slice_seconds),
        )


class AnswerChecker:
    """Compare emitted answers with the expected per-query sequences.

    Every query reports at ``slide, 2*slide, 3*slide, ...`` (tuple
    positions, or seconds of event time); the checker holds one cursor
    per query, so a skipped, repeated or reordered answer is counted
    as well as a wrong value.  Ints compare exactly and the ``max``
    floats bit-for-bit (both are plain ``==`` on values that are never
    NaN or signed zero here).

    Args:
        queries: ``{name: (range, slide)}`` in the stream's own unit.
        reference: ``(range, position) -> expected answer``.
    """

    def __init__(self, queries: Dict[str, Tuple[Any, Any]], reference):
        self._queries = queries
        self._reference = reference
        self._cursor = {name: 0 for name in queries}
        self.checked = 0
        #: Wrong value, unknown query, off-grid, repeated or reordered.
        self.mismatched = 0
        #: Answers a query jumped over.
        self.skipped = 0
        self.first_mismatch: Any = None

    def check(self, answers: Iterable[Tuple[Any, str, Any]]) -> None:
        """Consume ``(position, query_name, value)`` triples in arrival order."""
        queries = self._queries
        cursor = self._cursor
        reference = self._reference
        for position, name, value in answers:
            self.checked += 1
            spec = queries.get(name)
            if spec is None:
                self._mismatch((position, name, value, "unknown query"))
                continue
            range_size, slide = spec
            index, off_grid = divmod(position, slide)
            if off_grid or index <= cursor[name]:
                self._mismatch((position, name, value, "off-grid or repeated"))
                continue
            self.skipped += int(index) - cursor[name] - 1
            cursor[name] = int(index)
            expected = reference(range_size, position)
            if value != expected:
                self._mismatch((position, name, value, f"expected {expected!r}"))

    def _mismatch(self, detail: Any) -> None:
        self.mismatched += 1
        if self.first_mismatch is None:
            self.first_mismatch = detail

    def expected_through(self, end: Any) -> int:
        """Answers a complete run over ``(0, end]`` must have emitted."""
        return sum(int(end // slide) for _, slide in self._queries.values())

    def failed(self, end: Any) -> int:
        """Mismatched + skipped + missing-at-the-end + beyond-the-end answers."""
        tail = sum(
            abs(int(end // slide) - self._cursor[name])
            for name, (_, slide) in self._queries.items()
        )
        return self.mismatched + self.skipped + tail
