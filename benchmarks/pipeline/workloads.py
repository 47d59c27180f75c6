"""The six workloads: fixed work, public APIs, every answer checked.

Each workload is one long-lived instance of the system under test,
fed a fixed number of equal *segments* of the seeded stream.  Every
segment yields its own value of every metric and has a calibration
spin beside it; a run reports the median across segments of the
calibration-normalised values (``estimators.SegmentSeries``), never
one end-to-end stopwatch reading.

Two driving styles:

* the three ``engine_*`` workloads (this file) are synchronous — the
  answers of a call are in hand when it returns — so between segments
  the harness checks answers, builds the next segment's input and
  spins, and none of that is inside a segment's time;
* ``service_shm_sum`` and the two ``socket_*`` workloads
  (``served_workloads.py``) have workers or a server running beside
  the harness: answers are stamped on arrival, kept, and checked
  after the last segment.

Fixed work scales with ``--seconds`` only (``run_seconds`` in
``BENCHMARK.json`` when the driver runs it), never with the speed of
the commit under test.
"""

from __future__ import annotations

import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import estimators
import inputs
import oracle

#: Segments per second of ``--seconds`` and the warm-up segments that
#: belong to ``setup_s`` (40 measured segments at the 8 s default).
SEGMENTS_PER_SECOND = 5
WARMUP_SEGMENTS = 2

COUNT_QUERIES = ((1024, 32), (512, 64))
PERTUPLE_QUERIES = ((16384, 1), (1024, 1))
TIME_QUERIES = ((2.0, 1.0), (5.0, 2.0))

#: Tuples per segment (each ~0.2 s on the 2-core reference box) and the
#: records per ingest call.  ``BENCHMARK.json`` says why each exists.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "engine_bulk_sum": {
        "segment_tuples": 640 * 1024,
        "call_tuples": 1024,
    },
    "engine_pertuple_max": {
        "segment_tuples": 30 * 1024,
        "call_tuples": 1,
    },
    "engine_event_disorder": {
        "segment_tuples": 320 * 512,
        "call_tuples": 512,
    },
    "service_shm_sum": {
        "segment_tuples": 88 * 1024,
        "call_tuples": 1024,
    },
    "socket_closed_sum": {
        "segment_tuples": 80 * 256,
        "call_tuples": 256,
    },
    "socket_open_sum": {
        "segment_tuples": 30 * 256,
        "call_tuples": 256,
    },
}

#: Call stamps kept from a traced pass (the span file's call spans).
KEPT_CALL_STAMPS = 400


def measured_segments(seconds: float) -> int:
    """Measured segments for a run of ``seconds`` (never fewer than 4)."""
    return max(4, round(SEGMENTS_PER_SECOND * seconds))


def query_names(queries: Sequence[Any]) -> Dict[str, Tuple[Any, Any]]:
    """``{query.name: (range, slide)}`` for count or time queries."""
    named = {}
    for query in queries:
        if hasattr(query, "range_seconds"):
            named[query.name] = (query.range_seconds, query.slide_seconds)
        else:
            named[query.name] = (query.range_size, query.slide)
    return named


class Phase:
    """Accumulates wall time that ``setup_s`` must not be charged for."""

    def __init__(self) -> None:
        #: Input generation and oracle precompute.
        self.inputgen_s = 0.0
        #: The harness's own pauses: answer checks, input slicing, spins.
        self.harness_s = 0.0

    def generating(self, work: Callable[[], Any]) -> Any:
        """Run ``work`` and count its wall time as input generation."""
        started = time.perf_counter()
        try:
            return work()
        finally:
            self.inputgen_s += time.perf_counter() - started

    def pausing(self, work: Callable[[], Any]) -> Any:
        """Run ``work`` and count its wall time as a harness pause."""
        started = time.perf_counter()
        try:
            return work()
        finally:
            self.harness_s += time.perf_counter() - started

    def setup_seconds(self, spawned_at: float, now: Optional[float] = None) -> float:
        """``setup_s`` if set-up ends now: elapsed minus what is excluded."""
        if now is None:
            now = time.monotonic()
        return now - spawned_at - self.inputgen_s - self.harness_s


# ---------------------------------------------------------------------
# Synchronous engine workloads
# ---------------------------------------------------------------------


class EngineBulkSum:
    """``StreamEngine.feed_many`` over the keyed stream's values."""

    name = "engine_bulk_sum"
    queries = COUNT_QUERIES
    operator = "sum"
    method = "feed_many"

    def prepare(self, seed: int) -> None:
        _, values = inputs.keyed_stream(seed)
        self._calls = inputs.chunked(values, 1024)
        self._oracle = oracle.CountSumOracle(values)

    def build(self) -> None:
        from repro.operators.registry import get_operator
        from repro.stream.engine import StreamEngine
        from repro.stream.sink import CollectSink
        from repro.windows.query import Query

        queries = [Query(*spec) for spec in self.queries]
        self._sink = CollectSink()
        engine = StreamEngine(queries, get_operator(self.operator), sinks=[self._sink])
        self.call = getattr(engine, self.method)
        self.checker = oracle.AnswerChecker(query_names(queries), self._oracle.answer)
        self._next_call = 0

    def segment_calls(self, count: int) -> List[Any]:
        calls = self._calls
        first = self._next_call
        self._next_call += count
        return [calls[index % len(calls)] for index in range(first, first + count)]

    def collect(self) -> List[Tuple[Any, str, Any]]:
        answers = self._sink.answers
        self._sink.answers = []
        return [(position, query.name, value) for position, query, value in answers]

    def finish(self) -> Tuple[List[Tuple[Any, str, Any]], Any]:
        """``(answers still to check, where the stream ended)``."""
        return [], self._next_call * WORKLOADS[self.name]["call_tuples"]


class EnginePertupleMax(EngineBulkSum):
    """``StreamEngine.feed`` per tuple, ``max`` over spiky floats."""

    name = "engine_pertuple_max"
    queries = PERTUPLE_QUERIES
    operator = "max"
    method = "feed"

    def prepare(self, seed: int) -> None:
        self._calls = inputs.spiky_floats(seed)
        self._oracle = oracle.CountMaxOracle(
            self._calls, [spec[0] for spec in PERTUPLE_QUERIES]
        )


class EngineEventDisorder:
    """``EventTimeEngine.feed_many`` over the disordered event stream."""

    name = "engine_event_disorder"

    def prepare(self, seed: int) -> None:
        timestamps, values = inputs.disordered_events(seed)
        self._timestamps = inputs.chunked(timestamps, 512)
        self._values = inputs.chunked(values, 512)
        self._oracle = oracle.EventSumOracle(
            timestamps, values, inputs.EVENT_PERIOD_SECONDS, 1.0
        )

    def build(self) -> None:
        from repro.operators.registry import get_operator
        from repro.stream.engine import EventTimeEngine
        from repro.windows.timebased import TimeQuery

        queries = [TimeQuery(*spec) for spec in TIME_QUERIES]
        self._engine = EventTimeEngine(
            queries, get_operator("sum"), lateness=inputs.EVENT_LATENESS
        )
        self._answers: List[Any] = []
        feed_many = self._engine.feed_many
        extend = self._answers.extend
        self.call = lambda batch: extend(feed_many(batch))
        self.checker = oracle.AnswerChecker(
            query_names(queries), self._oracle.answer
        )
        self._next_call = 0

    def _batch(self, index: int) -> List[Tuple[float, int]]:
        cycle, slot = divmod(index, len(self._values))
        timestamps = self._timestamps[slot]
        if cycle:
            offset = cycle * inputs.EVENT_PERIOD_SECONDS
            timestamps = [stamp + offset for stamp in timestamps]
        return list(zip(timestamps, self._values[slot]))

    def segment_calls(self, count: int) -> List[Any]:
        first = self._next_call
        self._next_call += count
        return [self._batch(index) for index in range(first, first + count)]

    def collect(self) -> List[Tuple[Any, str, Any]]:
        answers = self._answers[:]
        del self._answers[:]
        return [(end, query.name, value) for end, query, value in answers]

    def finish(self) -> Tuple[List[Tuple[Any, str, Any]], Any]:
        """Feed on to the end of the period, then close the last slice.

        No displaced record crosses a period boundary, so the stream
        ends on complete slices and the oracle's expected answers are
        simply every report time up to the stream's event-time length.
        """
        batches = len(self._values)
        for batch in self.segment_calls(-self._next_call % batches):
            self.call(batch)
        self._answers.extend(self._engine.finish())
        cycles = self._next_call // batches
        return self.collect(), cycles * inputs.EVENT_PERIOD_SECONDS


def run_sync(
    workload: Any,
    phase: Phase,
    series: estimators.SegmentSeries,
    segments: int,
    time_calls: bool,
    last_spin: List[float],
    kept_stamps: Optional[Tuple[array, array]] = None,
) -> None:
    """Drive ``segments`` segments through a synchronous workload.

    Each segment adds one row to ``series``: its tuple rate and CPU
    per tuple and, when ``time_calls``, the p50 / p99 / p99.9 of its
    call durations — normalised by the spins before and after it
    (``last_spin`` carries the previous reading across passes).
    """
    spec = WORKLOADS[workload.name]
    segment_tuples = spec["segment_tuples"]
    per_segment = segment_tuples // spec["call_tuples"]
    call = workload.call
    checker = workload.checker
    now = time.perf_counter
    now_ns = time.perf_counter_ns
    cpu_now = time.process_time
    for _ in range(segments):
        calls = phase.pausing(lambda: workload.segment_calls(per_segment))
        starts = array("q")
        ends = array("q")
        add_start = starts.append
        add_end = ends.append
        cpu_started = cpu_now()
        started = now()
        if time_calls:
            for item in calls:
                add_start(now_ns())
                call(item)
                add_end(now_ns())
        else:
            for item in calls:
                call(item)
        wall = now() - started
        cpu = cpu_now() - cpu_started

        def between_segments() -> None:
            checker.check(workload.collect())
            spin = estimators.calibration_spin()
            row = {
                "tuples_per_s": segment_tuples / wall,
                "cpu_us_per_tuple": cpu / segment_tuples * 1e6,
            }
            if time_calls:
                durations = sorted(end - start for start, end in zip(starts, ends))
                row["step_p50_ns"] = estimators.quantile(durations, 0.5)
                row["step_p999_ns"] = estimators.quantile(durations, 0.999)
                # Every call of the engine workloads releases answers,
                # so an answer's latency is its call's duration.
                row["answer_p50_ms"] = row["step_p50_ns"] / 1e6
                row["answer_p99_ms"] = estimators.quantile(durations, 0.99) / 1e6
                row["step_max_ns"] = durations[-1]
                if kept_stamps is not None and not kept_stamps[0]:
                    kept_stamps[0].extend(starts[:KEPT_CALL_STAMPS])
                    kept_stamps[1].extend(ends[:KEPT_CALL_STAMPS])
            series.add(last_spin + [spin], **row)
            last_spin[:] = [spin]

        phase.pausing(between_segments)


def peak_rss_mb(child_pids: Sequence[Optional[int]] = ()) -> float:
    """``ru_maxrss`` of this process plus its largest live child, MiB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = [
        estimators.process_peak_rss_mb(pid) or 0.0
        for pid in child_pids
        if pid is not None
    ]
    return own + max(children, default=0.0)


def end_to_end(
    setup_s: float,
    rss_mb: float,
    throughput: estimators.SegmentSeries,
    latency: estimators.SegmentSeries,
) -> Dict[str, float]:
    """The end-to-end metrics of ``BENCHMARK.json``."""
    return {
        "setup_s": setup_s,
        "ingest_tuples_per_s": throughput.median("tuples_per_s"),
        "cpu_us_per_tuple": throughput.median("cpu_us_per_tuple"),
        "peak_rss_mb": rss_mb,
        "answer_latency_p50_ms": latency.median("answer_p50_ms"),
    }


def raw_medians(
    throughput: estimators.SegmentSeries, latency: estimators.SegmentSeries
) -> Dict[str, float]:
    """The normalised end-to-end metrics as measured, before the spin
    correction: physical on this host, printed beside each value."""
    return {
        "ingest_tuples_per_s": throughput.raw_median("tuples_per_s"),
        "cpu_us_per_tuple": throughput.raw_median("cpu_us_per_tuple"),
        "answer_latency_p50_ms": latency.raw_median("answer_p50_ms"),
    }


def fill_result(
    result: Dict[str, Any],
    throughput: estimators.SegmentSeries,
    latency: estimators.SegmentSeries,
    rss_mb: float,
    checker: oracle.AnswerChecker,
    end: Any,
    submitted: int,
    lost: int,
    spins: Sequence[float],
    detail: Dict[str, float],
    notes: List[str],
    valid: bool = True,
    saturated: bool = False,
) -> Dict[str, Any]:
    """What every finished run reports, engine or served.

    ``end`` is where the stream ended (the checker's unit), ``submitted``
    the records handed over where a submit can be refused, and ``lost``
    the submits refused plus records shed, dropped or dead-lettered.
    ``valid`` is false when the run did not measure what it claims to
    (an open loop whose generator or server fell behind the schedule);
    ``saturated`` when that was the server: its result line says
    ``correct: false`` whatever the oracle found.
    """
    detail.update(unbounded_latencies(latency))
    result.update(
        metrics=end_to_end(result["setup_s"], rss_mb, throughput, latency),
        raw=raw_medians(throughput, latency),
        rate=throughput.spread("tuples_per_s"),
        # Time over tuples of the whole pass — a mean, like the ladder's
        # rungs, which the traced pass is compared with.
        wall_ns_per_tuple=statistics.fmean(
            1e9 / rate for rate in throughput.values["tuples_per_s"] if rate
        ),
        attempted=checker.expected_through(end) + submitted,
        failed=checker.failed(end) + lost,
        first_mismatch=repr(checker.first_mismatch),
        calibration=estimators.calibration_summary(spins),
        detail=detail,
        notes=notes,
        valid=valid,
        saturated=saturated,
    )
    return result


def unbounded_latencies(latency: estimators.SegmentSeries) -> Dict[str, float]:
    """The latencies too unsteady on this box to carry a bound.

    Computed on every run and printed as detail; ``--trace 1`` reports
    them among the per-layer metrics.
    """
    return {
        "step_latency_p50_ns": latency.median("step_p50_ns"),
        "step_latency_p999_ns": latency.median("step_p999_ns"),
        "answer_latency_p99_ms": latency.median("answer_p99_ms"),
        "step_latency_max_ns": max(latency.values["step_max_ns"]),
    }


def run_sync_workload(
    workload: Any, mode: str, seed: int, seconds: float, spawned_at: float
) -> Dict[str, Any]:
    """Set up, warm up and measure one synchronous engine workload."""
    # The per-tuple workload times its calls in a pass of its own, so
    # its throughput pass pays for no clock reads.
    separate_timing = WORKLOADS[workload.name]["call_tuples"] == 1
    phase = Phase()
    # One CPU for the whole run, so a spin reads the speed of the CPU
    # its segment ran on.
    estimators.Pinning()
    phase.generating(lambda: workload.prepare(seed))
    workload.build()
    last_spin: List[float] = []
    warmup = estimators.SegmentSeries()
    run_sync(
        workload, phase, warmup, WARMUP_SEGMENTS, not separate_timing, last_spin
    )
    setup_s = phase.setup_seconds(spawned_at) / estimators.slowdown(warmup.spins)
    result: Dict[str, Any] = {
        "workload": workload.name,
        "setup_s": setup_s,
        "inputgen_s": phase.inputgen_s,
    }
    if mode == "setup":
        return result
    segments = measured_segments(seconds)
    if mode == "trace":
        segments = max(4, segments // 5)
    throughput = estimators.SegmentSeries()
    run_sync(workload, phase, throughput, segments, not separate_timing, last_spin)
    latency = throughput
    if separate_timing or mode == "trace":
        # The same loop again with every call stamped.
        latency = estimators.SegmentSeries()
        stamps = (array("q"), array("q"))
        run_sync(workload, phase, latency, segments, True, last_spin, stamps)
        result["call_stamps"] = stamps
        result["trace_overhead_ratio"] = latency.median(
            "tuples_per_s"
        ) / throughput.median("tuples_per_s")
    tail, end = workload.finish()
    workload.checker.check(tail)
    return fill_result(
        result, throughput, latency, peak_rss_mb(), workload.checker, end, 0, 0,
        throughput.spins, {}, [],
    )


_SYNC = {
    cls.name: cls for cls in (EngineBulkSum, EnginePertupleMax, EngineEventDisorder)
}


def run_workload(
    name: str, mode: str, seed: int, seconds: float, spawned_at: float
) -> Dict[str, Any]:
    """Run one workload in this process; returns its result."""
    import served_workloads

    if name in _SYNC:
        return run_sync_workload(_SYNC[name](), mode, seed, seconds, spawned_at)
    if name == "service_shm_sum":
        return served_workloads.run_service_shm(mode, seed, seconds, spawned_at)
    if name in ("socket_closed_sum", "socket_open_sum"):
        return served_workloads.run_socket(name, mode, seed, seconds, spawned_at)
    raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
