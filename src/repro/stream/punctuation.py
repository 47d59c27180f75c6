"""Stream punctuations for Cutty slicing (paper Section 2.1).

Cutty "comes at a cost: additional punctuations have to be sent over
the data stream to the execution module to indicate the beginnings of
the new partials, which reduces the effective bandwidth of the stream
and can slow down the system, especially if the workload includes a
large number of queries with small windows."

This module makes that cost concrete: a punctuated stream interleaves
:class:`Punctuation` markers with data tuples; the optimizer side
(:func:`punctuate`) injects a marker wherever any registered query's
window begins, and the execution side
(:class:`PunctuatedCuttyPipeline`) cuts partials *only* where markers
say so — it owns no window arithmetic of its own, exactly like a
remote execution module behind a stream.  Bandwidth overhead is then
simply ``markers / (markers + tuples)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.core.facade import make_slickdeque
from repro.errors import PlanError
from repro.operators.base import AggregateOperator
from repro.operators.views import partial_view, raw_view
from repro.windows.query import Query


@dataclass(frozen=True)
class Punctuation:
    """A partial-boundary marker injected into the stream.

    Attributes:
        position: The stream position *after* which the new partial
            begins (the boundary follows the tuple at ``position``).
    """

    position: int


#: A punctuated stream element: either a data value or a marker.
Element = Union[Punctuation, Any]


def punctuate(
    values: Iterable[Any], queries: Sequence[Query]
) -> Iterator[Element]:
    """Interleave Cutty punctuations into a value stream.

    A marker is emitted after position ``t`` whenever some query's
    window starts there (``t ≡ −r (mod s)``), deduplicated across
    queries.
    """
    if not queries:
        raise PlanError("punctuate requires at least one query")
    phases = {
        ((-q.range_size) % q.slide, q.slide) for q in queries
    }
    position = 0
    for value in values:
        position += 1
        yield value
        if any(position % slide == phase % slide
               for phase, slide in phases):
            yield Punctuation(position)


def bandwidth_overhead(
    stream: Iterable[Element],
) -> Tuple[int, int, float]:
    """Count ``(tuples, punctuations, overhead fraction)`` of a stream."""
    tuples = 0
    markers = 0
    for element in stream:
        if isinstance(element, Punctuation):
            markers += 1
        else:
            tuples += 1
    total = tuples + markers
    return tuples, markers, (markers / total if total else 0.0)


class PunctuatedCuttyPipeline:
    """Cutty execution driven purely by stream punctuations.

    The pipeline closes a partial exactly when a :class:`Punctuation`
    arrives and owns no window arithmetic — the division of labour the
    paper describes between the optimizer and the execution module.
    :class:`~repro.stream.engine.CuttyPipeline` is the same execution
    with the punctuations computed locally.
    """

    def __init__(self, query: Query, operator: AggregateOperator):
        self.query = query
        self.operator = operator
        self._raw = raw_view(operator)
        # A punctuation arrives *after* the tuple that ends a partial,
        # so at answer time the newest full partial is still open:
        # ceil(r/s) − 1 completed partials sit inside the window.
        self._completed_per_window = (
            query.range_size - 1
        ) // query.slide
        # Built for every shape, so construction refuses exactly what
        # make_slickdeque refuses; with no completed partial in a
        # window it is never pushed.
        final = make_slickdeque(
            partial_view(operator), max(self._completed_per_window, 1)
        )
        self._final = final if self._completed_per_window > 0 else None
        self._open = self._raw.identity
        self._position = 0
        self._closed_partials = 0
        #: Punctuations consumed.
        self.punctuations = 0

    def feed(self, element: Element):
        """Consume one stream element; return ``(position, answer)``
        when an answer is due, else ``None``."""
        if isinstance(element, Punctuation):
            self.punctuations += 1
            if self._final is not None:
                self._final.push(self._open)
                self._closed_partials += 1
            self._open = self._raw.identity
            return None
        self._position += 1
        self._open = self._raw.combine(
            self._open, self._raw.lift(element)
        )
        if self._position % self.query.slide == 0:
            if self._final is not None and self._closed_partials:
                agg = self._raw.combine(self._final.query(), self._open)
            else:
                agg = self._open
            return (self._position, self.operator.lower(agg))
        return None

    def run(self, stream: Iterable[Element]) -> List[Tuple[int, Any]]:
        """Consume a punctuated stream, returning every answer."""
        answers = []
        for element in stream:
            produced = self.feed(element)
            if produced is not None:
                answers.append(produced)
        return answers
