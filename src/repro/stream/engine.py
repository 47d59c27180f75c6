"""The stream engine: source → slicing → final aggregation → sinks.

A deliberately small DSMS substrate (the paper evaluates on "a
stand-alone stream aggregator platform", Section 5.1) with two
pipelines:

* **Shared** — the paper's system: one
  :class:`~repro.core.multiquery.SharedSlickDeque` runs every
  registered ACQ over one shared plan (Panes or Pairs), for every
  operator SlickDeque covers — invertible, selection-type, and
  non-invertible algebraic compositions such as Range, per component.
  The no-sharing baseline of the sharing ablation is simply one
  engine per ACQ.
* **Cutty** — single-query Cutty slicing: partials start only at
  window starts and the answer combines the completed partials with
  the running open partial (Section 2.1, Figure 3), executed by the
  punctuation-driven pipeline of :mod:`repro.stream.punctuation`.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter as _perf_counter
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.multiquery import SharedSlickDeque
from repro.kernels import as_sequence
from repro.operators.base import AggregateOperator
from repro.stream.sink import Sink
from repro.telemetry import runtime as _telemetry_runtime
from repro.windows.query import Query


class StreamEngine:
    """Run a set of ACQs over a value stream, delivering to sinks.

    Args:
        queries: The ACQs to register.
        operator: The aggregate operation shared by all of them
            (Section 2.3: compatible aggregations share one plan).
        technique: ``"panes"`` or ``"pairs"``.
        sinks: Answer consumers; each call's triples go to every sink.

    Raises:
        InvalidOperatorError: for an operator SlickDeque cannot run
            (neither invertible, selection-type, nor an algebraic
            composition — e.g. ``bit_and``).
    """

    def __init__(
        self,
        queries: Sequence[Query],
        operator: AggregateOperator,
        technique: str = "pairs",
        sinks: Optional[Sequence[Sink]] = None,
    ):
        self.queries = tuple(queries)
        self.operator = operator
        self.sinks: List[Sink] = list(sinks or [])
        self.answers_emitted = 0
        self.tuples_consumed = 0
        self._shared = SharedSlickDeque(self.queries, operator, technique)

    def add_sink(self, sink: Sink) -> None:
        """Register another answer consumer."""
        self.sinks.append(sink)

    def _deliver(self, triples: List[Tuple[int, Query, Any]]) -> None:
        if triples:
            self.answers_emitted += len(triples)
            for sink in self.sinks:
                sink.emit_many(triples)

    def feed(self, value: Any) -> None:
        """Consume one stream value.

        A value the operator refuses (``lift`` or ⊕ raises in the
        partial stage) leaves the engine exactly as it was: no position
        is used up, nothing is counted as consumed, and later answers
        are those of the stream without it.  A failure inside the
        final-aggregation update is not covered — the window state can
        no longer be trusted, which is why ``service/shard.py`` drops
        an engine that raised.
        """
        triples = self._shared.feed(value)
        self.tuples_consumed += 1
        if triples:  # ``_deliver`` inlined: one call fewer per tuple
            self.answers_emitted += len(triples)
            for sink in self.sinks:
                sink.emit_many(triples)

    def feed_many(self, values: Sequence[Any]) -> None:
        """Consume a batch of stream values (bulk ingestion).

        The whole batch goes to the plan's bulk path — partials fold
        with one segmented kernel call per batch — and the batch's
        answers reach each sink in one :meth:`Sink.emit_many`.  Every
        sink sees exactly the triples, in exactly the order, that
        per-value feeding would produce.

        When a process-global telemetry hub is installed (see
        :func:`repro.telemetry.install`) each call observes its batch
        latency and tuple/answer counts into the hub; with no hub the
        instrumentation costs one module-attribute load and two
        ``None`` checks.
        """
        hub = _telemetry_runtime.active()
        if hub is not None:
            started = _perf_counter()
            answers_before = self.answers_emitted
        values = as_sequence(values)
        triples = self._shared.feed_many(values)
        self.tuples_consumed += len(values)
        self._deliver(triples)
        if hub is not None:
            registry = hub.registry
            registry.histogram(
                "repro_engine_feed_many_seconds",
                "StreamEngine.feed_many batch latency",
            ).observe(_perf_counter() - started)
            registry.counter(
                "repro_engine_tuples_total",
                "Tuples consumed through StreamEngine.feed_many",
            ).inc(len(values))
            emitted = self.answers_emitted - answers_before
            if emitted:
                registry.counter(
                    "repro_engine_answers_total",
                    "Answers emitted through StreamEngine.feed_many",
                ).inc(emitted)

    def run(
        self, values: Iterable[Any], batch_size: int = 1024
    ) -> None:
        """Consume an entire stream, then close every sink.

        The stream is drained in ``batch_size``-tuple chunks through
        :meth:`feed_many`; sources never need to fit in memory.
        """
        iterator = iter(values)
        while True:
            batch = list(islice(iterator, batch_size))
            if not batch:
                break
            self.feed_many(batch)
        for sink in self.sinks:
            sink.close()


class EventTimeEngine:
    """Run time-based ACQs over a *disordered* timestamped stream.

    The single-node composition of the event-time layer: records flow
    through a :class:`~repro.stream.outoforder.TimestampReorderBuffer`
    (bounded-lateness re-sequencing with a configurable late-record
    policy) into a :class:`~repro.windows.timebased.TimeWindowEngine`,
    which folds the released, now-sorted stream run by run.
    For any stream whose disorder stays within ``lateness`` seconds the
    answers are identical to feeding the sorted stream through
    :class:`TimeWindowEngine` directly — the property suite in
    ``tests/property/test_prop_event_time.py`` holds this for every
    registry operator — which also makes this engine the single-node
    oracle the sharded event-time service is checked against.

    Args:
        queries: Time-based ACQs (``TimeQuery`` instances).
        operator: The shared aggregate operation.
        lateness: Bounded-lateness allowance in seconds; records more
            than this far behind the newest timestamp are late.
        late_policy: One of
            :data:`~repro.stream.outoforder.LATE_POLICIES`.
        on_late: Optional ``(timestamp, value)`` handler invoked for
            late records under the ``drop``/``side_output`` policies.
        origin: Timestamp of the first slice boundary.
        resolution: Duration resolution for the tick arithmetic.
        technique: ``"panes"`` or ``"pairs"`` slicing for the inner
            shared plan.
    """

    def __init__(
        self,
        queries,
        operator: AggregateOperator,
        lateness: float = 0.0,
        late_policy: str = "raise",
        on_late=None,
        origin: float = 0.0,
        resolution: Optional[float] = None,
        technique: str = "pairs",
    ):
        from repro.stream.outoforder import TimestampReorderBuffer
        from repro.windows.timebased import DEFAULT_RESOLUTION, TimeWindowEngine

        self._inner = TimeWindowEngine(
            queries,
            operator,
            origin=origin,
            resolution=DEFAULT_RESOLUTION if resolution is None else resolution,
            technique=technique,
        )
        self._reorder = TimestampReorderBuffer(
            lateness, late_policy, on_late, origin=origin
        )
        self.queries = self._inner.queries
        self.operator = operator

    @property
    def watermark(self) -> float:
        """Current event-time watermark (``-inf`` before any record)."""
        return self._reorder.watermark

    @property
    def late_records(self) -> int:
        """Records rejected as late so far (drop/side-output policies)."""
        return self._reorder.late_records

    def feed(self, timestamp: float, value: Any) -> List[Tuple[float, Any, Any]]:
        """Consume one timestamped tuple; return released answers."""
        answers: List[Tuple[float, Any, Any]] = []
        for released_ts, released in self._reorder.push(timestamp, value):
            answers += self._inner.feed(released_ts, released)
        return answers

    def feed_many(
        self, records: Iterable[Tuple[float, Any]]
    ) -> List[Tuple[float, Any, Any]]:
        """Consume a batch of ``(timestamp, value)`` pairs at once.

        The reorder buffer merges the batch with one stable sort and
        judges every record against the watermark as of the previous
        call (:meth:`TimestampReorderBuffer.push_many_into
        <repro.stream.outoforder.TimestampReorderBuffer.push_many_into>`);
        what it releases — already sorted — goes to
        :meth:`TimeWindowEngine.feed_many
        <repro.windows.timebased.TimeWindowEngine.feed_many>` in one
        call, which closes all its slices in one run.  For a stream
        whose disorder stays within the lateness bound the answers are
        those of calling :meth:`feed` per record.

        All or nothing on the timestamp side, by the buffer's rule: a
        malformed row, an invalid timestamp or a late record under
        ``raise`` raises with buffer, watermark and windows untouched;
        feed the batch's clean prefix again and no answer is lost.
        """
        released: List[Tuple[float, Any]] = []
        self._reorder.push_many_into(records, released)
        return self._inner.feed_many(released)

    def finish(self) -> List[Tuple[float, Any, Any]]:
        """Drain the reorder buffer, close the open slice, and answer."""
        answers = self._inner.feed_many(self._reorder.drain())
        answers += self._inner.finish()
        return answers

    def run(self, stream: Iterable[Tuple[float, Any]]):
        """Stream ``(timestamp, value)`` pairs; yield every answer."""
        for timestamp, value in stream:
            yield from self.feed(timestamp, value)
        yield from self.finish()


class CuttyPipeline:
    """Single-query Cutty execution (Section 2.1, Figure 3).

    Partials begin only at window starts; at reporting positions the
    final aggregation "execute[s] in the middle of the partial
    aggregation calculation by accessing the current value in the
    partial".  The execution is a
    :class:`~repro.stream.punctuation.PunctuatedCuttyPipeline`; this
    pipeline is its optimizer side, feeding it each value and, after
    every window start, the :class:`~repro.stream.punctuation.Punctuation`
    that :func:`~repro.stream.punctuation.punctuate` would emit there.
    """

    def __init__(self, query: Query, operator: AggregateOperator):
        # Bound here, not at import: punctuation loads the single-query
        # facade, which the shared engine never needs.
        from repro.stream.punctuation import PunctuatedCuttyPipeline, Punctuation

        self.query = query
        self.operator = operator
        self._execution = PunctuatedCuttyPipeline(query, operator)
        self._punctuation = Punctuation
        # Edge phase: partial boundaries fall after positions ≡ -r (mod s).
        self._edge_phase = (-query.range_size) % query.slide

    @property
    def punctuations(self) -> int:
        """Punctuations consumed (edges signalled on the stream)."""
        return self._execution.punctuations

    def feed(self, value: Any) -> Optional[Tuple[int, Any]]:
        """Consume one tuple; return ``(position, answer)`` when due."""
        execution = self._execution
        answer = execution.feed(value)
        position = execution._position
        if position % self.query.slide == self._edge_phase:
            execution.feed(self._punctuation(position))
        return answer

    def run(self, values: Iterable[Any]) -> List[Tuple[int, Any]]:
        """Consume a stream, returning every emitted answer."""
        answers = map(self.feed, values)
        return [answer for answer in answers if answer is not None]
