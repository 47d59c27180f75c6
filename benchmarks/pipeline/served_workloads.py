"""The three workloads with processes beside the harness.

``service_shm_sum`` forks two shard workers; the ``socket_*``
workloads talk to ``server_proc.py`` over loopback.  Answers are
stamped when they reach the harness, kept, and checked against the
oracle after the last segment.

A segment's rate is the *answers-out* rate: stream positions answered
per second between the first and the last answer arrival of the
segment (``estimators.answers_out_rate``).  The two closed loops stop
sending between segments for a calibration spin — the socket one
first lets its window of unanswered frames drain — and the pause is in
no segment's time.  The open loop's schedule never pauses; its spins
run before and after the stream and apply to its CPU per tuple only.

The harness is pinned to the first CPU and the workers or the server
to the last (``estimators.Pinning``); the socket workloads' spins
run on the server's CPU, because the server is what limits them.
"""

from __future__ import annotations

import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import estimators
import inputs
import loadgen
import oracle
from workloads import (
    COUNT_QUERIES,
    KEPT_CALL_STAMPS,
    WARMUP_SEGMENTS,
    WORKLOADS,
    Phase,
    fill_result,
    measured_segments,
    peak_rss_mb,
    query_names,
)

#: Spins before and after a stream that cannot pause for one.
SPINS_EACH_SIDE = 5

#: The open loop's reference rate and its low-rate phase (tuples/s).
OPEN_RATE = 50_000
OPEN_LOW_RATE = 10_000
#: An open-loop run is invalid when the generator ran later than this
#: at p99 (a stalling box: the harness's failing) or the backlog grew
#: faster than this (a saturated server: the system's failing, and a
#: failed run if it persists).  Either way it did not measure latency
#: at the rate.
MAX_LAG_P99_MS = 5.0
MAX_BACKLOG_SLOPE = 0.02 * OPEN_RATE

Arrival = Tuple[int, List[Any], int]


def _keyed_records(seed: int, per_call: int):
    keys, values = inputs.keyed_stream(seed)
    records = list(zip(keys, values))
    return inputs.chunked(records, per_call), oracle.CountSumOracle(values)


def _count_checker(reference: oracle.CountSumOracle) -> oracle.AnswerChecker:
    from repro.windows.query import Query

    return oracle.AnswerChecker(
        query_names([Query(*spec) for spec in COUNT_QUERIES]), reference.answer
    )


def _named(answers: Sequence[Tuple[Any, Any, Any]]):
    return [(position, query.name, value) for position, query, value in answers]


def _segments_for(mode: str, seconds: float) -> int:
    if mode == "setup":
        return 0
    segments = measured_segments(seconds)
    return max(4, segments // 5) if mode == "trace" else segments


def _segment_row(
    arrivals: Sequence[Arrival],
    answered_before: int,
    window_ns: Tuple[int, int],
    starts: Sequence[int],
    ends: Sequence[int],
    first_call: int,
    last_call: int,
    origin_of: Callable[[int], float],
    cpu_us_per_tuple: float,
    since_ns: int = 0,
) -> Dict[str, float]:
    """One segment's raw values from its arrivals and its calls.

    ``arrivals`` are the ``(arrival ns, answers, ...)`` of the segment,
    ``answered_before`` the stream position answered through when it
    began, ``window_ns`` its first and last send, calls ``first_call ..
    last_call`` the sends made in it, and ``origin_of(position)`` is
    when (ns) the call holding that stream position was made — or was
    due, in the open loop.  Answers whose call was made before
    ``since_ns`` waited out the pause between two segments in the
    router's buffers; their latency is not counted.

    A segment in which fewer than two ANSWERS frames arrived (a stall,
    or a shard worker being restarted, held every answer back past its
    end) stays in the series: its rate is what did get answered over
    its whole send window, and it has no latency values if nothing did.
    """
    points = [(arrival[0] / 1e9, arrival[1][-1][0]) for arrival in arrivals]
    if len(points) < 2 or points[0][0] == points[-1][0]:
        answered = points[-1][1] if points else answered_before
        points = [
            (window_ns[0] / 1e9, answered_before),
            (window_ns[1] / 1e9, answered),
        ]
    durations = sorted(
        ends[index] - starts[index] for index in range(first_call, last_call)
    )
    row = {
        "tuples_per_s": estimators.answers_out_rate(points),
        "cpu_us_per_tuple": cpu_us_per_tuple,
        "step_p50_ns": estimators.quantile(durations, 0.5),
        "step_p999_ns": estimators.quantile(durations, 0.999),
        "step_max_ns": durations[-1],
    }
    latencies = sorted(
        (arrival[0] - made) / 1e6
        for arrival in arrivals
        for made in (origin_of(position) for position, _, _ in arrival[1])
        if made >= since_ns
    )
    if latencies:
        row["answer_p50_ms"] = estimators.quantile(latencies, 0.5)
        row["answer_p99_ms"] = estimators.quantile(latencies, 0.99)
    return row


# ---------------------------------------------------------------------
# service_shm_sum
# ---------------------------------------------------------------------


def run_service_shm(
    mode: str, seed: int, seconds: float, spawned_at: float
) -> Dict[str, Any]:
    """``submit_many`` + ``poll`` per 1024-record chunk, two shm shards."""
    from repro.operators.registry import get_operator
    from repro.service.service import AggregationService
    from repro.windows.query import Query

    name = "service_shm_sum"
    spec = WORKLOADS[name]
    call_tuples = spec["call_tuples"]
    segment_tuples = spec["segment_tuples"]
    per_segment = segment_tuples // call_tuples
    phase = Phase()
    chunks, reference = phase.generating(
        lambda: _keyed_records(seed, call_tuples)
    )
    checker = _count_checker(reference)
    segments = WARMUP_SEGMENTS + _segments_for(mode, seconds)
    service = AggregationService(
        [Query(*query) for query in COUNT_QUERIES],
        get_operator("sum"),
        num_shards=2,
        batch_size=256,
        transport="process",
        data_plane="shm",
    )
    try:
        series = estimators.SegmentSeries()
        children = estimators.ChildCpuMeter()
        arrivals: List[Arrival] = []
        starts = array("q")
        ends = array("q")
        submit_many = service.submit_many
        poll = service.poll
        now_ns = time.perf_counter_ns
        pinning = estimators.Pinning()
        spin = phase.pausing(estimators.calibration_spin)
        warmup_spins = [spin]
        for segment in range(segments):
            # A restarted worker is a fork of this process, on this
            # process's CPU: move it at the next segment start.
            pinning.serve(service.shard_pids())
            if segment == WARMUP_SEGMENTS:
                setup_s = phase.setup_seconds(spawned_at) / estimators.slowdown(warmup_spins)
            first_call = len(starts)
            first_arrival = len(arrivals)
            # Router, frame encode and merge run in the caller's
            # process, so its CPU counts with the workers'.
            cpu_started = time.process_time() + children.sample(service.shard_pids())
            for index in range(first_call, first_call + per_segment):
                starts.append(now_ns())
                submit_many(chunks[index % len(chunks)])
                answers = poll()
                ends.append(now_ns())
                if answers:
                    arrivals.append((ends[-1], answers, 0))
            cpu = (
                time.process_time()
                + children.sample(service.shard_pids())
                - cpu_started
            )
            row = _segment_row(
                arrivals[first_arrival:],
                arrivals[first_arrival - 1][1][-1][0] if first_arrival else 0,
                (starts[first_call], ends[-1]),
                starts, ends, first_call, len(starts),
                lambda position: starts[(position - 1) // call_tuples],
                cpu / segment_tuples * 1e6,
                starts[first_call],
            )
            next_spin = phase.pausing(estimators.calibration_spin)
            if segment >= WARMUP_SEGMENTS:
                series.add([spin, next_spin], **row)
            else:
                warmup_spins.append(next_spin)
            spin = next_spin
        if mode == "setup":
            setup_s = phase.setup_seconds(spawned_at) / estimators.slowdown(warmup_spins)
        rss = peak_rss_mb(service.shard_pids())
        polled = sum(len(arrival[1]) for arrival in arrivals)
        outcome = service.close()
    except BaseException:
        service.abort()
        raise
    stats = outcome.stats
    restarts = sum(shard.restores for shard in stats.shards)
    result: Dict[str, Any] = {
        "workload": name,
        "setup_s": setup_s,
        "inputgen_s": phase.inputgen_s,
        # A set-up-only process can lose a worker too; run.py counts it.
        "restarts": restarts,
    }
    if mode == "setup":
        return result
    for arrival in arrivals:
        checker.check(_named(arrival[1]))
    checker.check(_named(outcome.answers[polled:]))
    wall = stats.elapsed_seconds
    transport = stats.transport or {}
    records = [shard.records for shard in stats.shards]
    result["call_stamps"] = (starts[:KEPT_CALL_STAMPS], ends[:KEPT_CALL_STAMPS])
    return fill_result(
        result,
        series,
        series,
        rss,
        checker,
        segments * segment_tuples,
        segments * segment_tuples,
        stats.dropped_records + stats.dead_letters + stats.late_records,
        series.spins,
        {
            "service.supervisor.restarts": restarts,
            "service.supervisor.stalls": sum(s.stalls for s in stats.shards),
            "service.supervisor.spilled_frames": transport.get("frames_spilled", 0),
            "service.supervisor.batch_latency_p50_ms": (
                stats.batch_latency.median * 1e3 if stats.batch_latency else 0.0
            ),
            "service.transport.frame.pickled_fallback_frames": transport.get(
                "frames_pickled", 0
            ),
            "service.transport.ring.wait_share": transport.get(
                "ring_wait_seconds", 0.0
            )
            / wall,
            "service.shard.busy_share_max": max(
                shard.busy_seconds for shard in stats.shards
            )
            / wall,
            "service.shard.skew": max(records) / (sum(records) / len(records)),
        },
        [
            f"WARNING: {restarts} shard worker restart(s) during the run; "
            "answers were recovered by replay and are still checked"
        ]
        if restarts
        else [],
    )


# ---------------------------------------------------------------------
# socket_closed_sum / socket_open_sum
# ---------------------------------------------------------------------


def _server_detail(stats: Dict[str, Any], server_cpu: float, wall: float):
    """``net.server.*`` from the STATS reply and the server's CPU."""
    families = stats["telemetry"]["metrics"]

    def histogram(metric: str) -> Dict[str, Any]:
        series = families.get(metric, {}).get("series") or [{}]
        return series[0]

    server = stats["server"]
    accepted = max(1, server["accepted_records"])
    decode = histogram("repro_net_decode_seconds")
    submit = histogram("repro_net_submit_seconds")
    reply = histogram("repro_net_reply_seconds")
    admission = histogram("repro_net_admission_seconds")
    return {
        "net.server.decode_ns_per_tuple": decode.get("sum", 0.0) / accepted * 1e9,
        "net.server.admission_ms_p99": (admission.get("p99") or 0.0) * 1e3,
        "net.server.submit_ns_per_tuple": submit.get("sum", 0.0) / accepted * 1e9,
        "net.server.reply_us_per_frame": (
            reply.get("sum", 0.0) / max(1, reply.get("count", 0)) * 1e6
        ),
        "net.server.shed_requests": server["shed_requests"],
        "net.server.busy_share": server_cpu / wall,
    }


@dataclass
class _Stream:
    """What driving one socket stream leaves behind."""

    setup_s: float
    #: ``perf_counter_ns`` stamps of every SUBMIT_BATCH send.
    starts: Sequence[int]
    ends: Sequence[int]
    #: Per segment: (first ns, last ns, spin readings beside it, CPU
    #: seconds the server used in it).
    spans: List[Tuple[int, int, List[float], float]]
    spins: List[float]
    #: The load generator's own CPU seconds inside measured segments.
    loadgen_cpu: float
    stats: Dict[str, Any]
    #: When (ns) the call holding a stream position was made, or due.
    origin_of: Callable[[int], float]
    #: Open loop only: schedule origin (ns) and due offsets (s).
    origin: int = 0
    due: Sequence[float] = ()


def _drive_closed(
    client: Any,
    frames: Sequence[Any],
    segments: int,
    per_segment: int,
    call_tuples: int,
    phase: Phase,
    spawned_at: float,
    spin_beside_server: Callable[[], float],
    server_cpu: Callable[[], float],
    reader: loadgen.ReplyReader,
    credits: threading.Semaphore,
) -> _Stream:
    """Segments of window-limited sends with a drained pause between."""
    starts = array("q")
    ends = array("q")
    spans: List[Tuple[int, int, List[float], float]] = []
    spins: List[float] = []
    loadgen_cpu = 0.0
    now_ns = time.perf_counter_ns
    reader.start()
    spin = phase.pausing(spin_beside_server)
    spins.append(spin)
    for segment in range(segments + 1):
        if segment == WARMUP_SEGMENTS:
            setup_s = phase.setup_seconds(spawned_at) / estimators.slowdown(spins)
            del spins[:]
            loadgen_cpu = 0.0
        if segment == segments:
            break
        resumed = now_ns()
        loadgen_started = time.process_time()
        server_started = server_cpu()
        loadgen.send_closed_loop(
            client, reader, credits, frames,
            segment * per_segment, per_segment, starts, ends,
        )
        loadgen.drain_window(credits, reader)
        paused = now_ns()
        loadgen_cpu += time.process_time() - loadgen_started
        server_used = server_cpu() - server_started
        next_spin = phase.pausing(spin_beside_server)
        loadgen.reopen_window(credits)
        spans.append((resumed, paused, [spin, next_spin], server_used))
        spins.append(next_spin)
        spin = next_spin
    return _Stream(
        setup_s, starts, ends, spans, spins, loadgen_cpu,
        reader.finish(client),
        lambda position: starts[(position - 1) // call_tuples],
    )


def _drive_open(
    client: Any,
    frames: Sequence[Any],
    segments: int,
    per_segment: int,
    call_tuples: int,
    phase: Phase,
    spawned_at: float,
    spin_beside_server: Callable[[], float],
    server_cpu: Callable[[], float],
    reader: loadgen.ReplyReader,
    sent_frames: List[int],
) -> _Stream:
    """Every batch at its due time; spins only before and after."""
    high_calls = segments * per_segment
    measured_calls = (segments - WARMUP_SEGMENTS) * per_segment
    # The low-rate phase follows the measured one, lasts a third as
    # long, and only feeds the loadgen.r10k.* detail.
    low_calls = round(measured_calls / 3 * OPEN_LOW_RATE / OPEN_RATE)
    due = loadgen.open_loop_schedule(
        [(OPEN_RATE, high_calls), (OPEN_LOW_RATE, low_calls)], call_tuples
    )
    spins: List[float] = []
    cpu_readings: List[float] = []

    def spin_side() -> None:
        spins.extend(spin_beside_server() for _ in range(SPINS_EACH_SIDE))

    def after_segment(sent: int) -> None:
        if sent <= high_calls:
            cpu_readings.append(server_cpu())

    phase.pausing(spin_side)
    reader.start()
    # The schedule fixes when the first measured segment starts.
    gap = call_tuples / OPEN_RATE
    setup_s = phase.setup_seconds(
        spawned_at,
        time.monotonic()
        + loadgen.OPEN_LOOP_LEAD_NS / 1e9
        + WARMUP_SEGMENTS * per_segment * gap,
    ) / estimators.slowdown(spins)
    loadgen_started = time.process_time()
    origin, starts, ends = loadgen.send_open_loop(
        client, reader, frames, due, sent_frames, per_segment, after_segment
    )
    stats = reader.finish(client)
    loadgen_cpu = time.process_time() - loadgen_started
    if len(cpu_readings) == segments:  # no low-rate phase came after
        cpu_readings.append(server_cpu())
    phase.pausing(spin_side)
    spans = []
    for segment in range(segments):
        first = origin + int(due[segment * per_segment] * 1e9)
        spans.append(
            (
                first,
                first + int(per_segment * gap * 1e9),
                [],
                cpu_readings[segment + 1] - cpu_readings[segment],
            )
        )
    return _Stream(
        setup_s, starts, ends, spans, spins,
        loadgen_cpu * measured_calls / len(due),
        stats,
        lambda position: origin + due[(position - 1) // call_tuples] * 1e9,
        origin, due,
    )


def run_socket(
    name: str, mode: str, seed: int, seconds: float, spawned_at: float
) -> Dict[str, Any]:
    """One connection to the server process, closed or open loop."""
    from repro.net.client import AggregationClient

    open_loop = name == "socket_open_sum"
    spec = WORKLOADS[name]
    call_tuples = spec["call_tuples"]
    segment_tuples = spec["segment_tuples"]
    per_segment = segment_tuples // call_tuples
    phase = Phase()
    frames, reference = phase.generating(lambda: _keyed_records(seed, call_tuples))
    checker = _count_checker(reference)
    segments = WARMUP_SEGMENTS + _segments_for(mode, seconds)
    server = loadgen.ServerProcess()
    try:
        client = AggregationClient(
            "127.0.0.1", server.port, request_timeout=loadgen.WAIT_LIMIT
        )
        pinning = estimators.Pinning()
        pinning.serve([server.pid])
        sent_frames = [0]
        credits = None if open_loop else threading.Semaphore(loadgen.WINDOW)
        reader = loadgen.ReplyReader(client, credits, sent_frames)

        def server_cpu() -> float:
            return estimators.process_cpu_seconds(server.pid) or 0.0

        stream = (_drive_open if open_loop else _drive_closed)(
            client, frames, segments, per_segment, call_tuples, phase, spawned_at,
            lambda: estimators.calibration_spin(pinning.served_cpu), server_cpu,
            reader,
            sent_frames if open_loop else credits,
        )
        total_server_cpu = server_cpu()
        rss = peak_rss_mb([server.pid])
        tail, _ = client.drain()
        client.close()
    finally:
        server.stop()
    result: Dict[str, Any] = {
        "workload": name,
        "setup_s": stream.setup_s,
        "inputgen_s": phase.inputgen_s,
    }
    if mode == "setup":
        return result
    for arrival in reader.arrivals:
        checker.check(_named(arrival[1]))
    # DRAIN replies with every answer of the run, polled or not.
    polled = sum(len(arrival[1]) for arrival in reader.arrivals)
    checker.check(_named(tail[polled:]))
    starts, ends = stream.starts, stream.ends
    series = estimators.SegmentSeries()
    arrived = [arrival[0] for arrival in reader.arrivals]
    for segment, (first_ns, last_ns, beside, cpu) in enumerate(stream.spans):
        first_arrival = bisect_left(arrived, first_ns)
        row = _segment_row(
            reader.arrivals[first_arrival : bisect_right(arrived, last_ns)],
            reader.arrivals[first_arrival - 1][1][-1][0] if first_arrival else 0,
            (first_ns, last_ns),
            starts, ends, segment * per_segment, (segment + 1) * per_segment,
            stream.origin_of, cpu / segment_tuples * 1e6,
            0 if open_loop else first_ns,
        )
        if segment < WARMUP_SEGMENTS:
            continue
        # The server's own spins in the segment, whose CPU is not the
        # system's.  The closed loop has the spins beside its pauses;
        # the open loop, which cannot pause, has only these, for the
        # one value that is all compute.
        during = [
            reading for began, reading in server.spins if first_ns <= began <= last_ns
        ]
        row["cpu_us_per_tuple"] -= (
            sum(during) * loadgen.SERVER_SPIN_ITERATIONS / 1e3 / segment_tuples
        )
        if open_loop:
            series.add(during, only=("cpu_us_per_tuple",), **row)
        else:
            series.add(beside, **row)
    detail = _server_detail(
        stream.stats, total_server_cpu, (ends[-1] - starts[0]) / 1e9
    )
    detail["loadgen.cpu_us_per_tuple"] = (
        stream.loadgen_cpu
        / ((segments - WARMUP_SEGMENTS) * segment_tuples)
        * 1e6
        / estimators.quartiles(series.factors)[1]
    )
    detail["net.client.retries"] = reader.refused
    notes: List[str] = []
    valid, saturated = True, False
    if open_loop:
        detail.update(
            _open_loop_detail(
                stream, segments * per_segment, reader.arrivals, call_tuples,
                stream.spans[WARMUP_SEGMENTS][0], stream.spans[-1][1],
            )
        )
        lag_p99 = detail["loadgen.lag_p99_ms"]
        slope = detail["loadgen.backlog_slope_tuples_per_s"]
        saturated = slope > MAX_BACKLOG_SLOPE
        valid = lag_p99 <= MAX_LAG_P99_MS and not saturated
        if not valid:
            notes.append(
                f"INVALID open-loop run: generator lag p99 {lag_p99:.2f} ms, "
                f"backlog slope {slope:.0f} tuples/s — the numbers describe "
                + (
                    "a server that cannot hold the rate"
                    if saturated
                    else "the load generator on a stalling box"
                )
                + ", not latency at the rate"
            )
    result["call_stamps"] = (starts[:KEPT_CALL_STAMPS], ends[:KEPT_CALL_STAMPS])
    return fill_result(
        result,
        series,
        series,
        rss,
        checker,
        len(starts) * call_tuples,
        len(starts) * call_tuples,
        reader.refused * call_tuples + stream.stats["server"]["shed_records"],
        stream.spins,
        detail,
        notes,
        valid,
        saturated,
    )


def _open_loop_detail(
    stream: _Stream,
    high_calls: int,
    arrivals: Sequence[Arrival],
    call_tuples: int,
    window_start: int,
    window_end: int,
) -> Dict[str, float]:
    """``loadgen.*``: is the open-loop run valid, and the low-rate phase."""
    origin, due, starts = stream.origin, stream.due, stream.starts
    in_window = [
        index
        for index, offset in enumerate(due)
        if window_start <= origin + offset * 1e9 <= window_end
    ]
    lags = sorted(
        (starts[index] - origin - due[index] * 1e9) / 1e6 for index in in_window
    )
    lag_p99 = estimators.quantile(lags, 0.99)
    moments: List[float] = []
    backlog: List[float] = []
    low_latencies: List[float] = []
    worst = 0.0
    for arrived, answers, sent in arrivals:
        if window_start <= arrived <= window_end:
            moments.append(arrived / 1e9)
            backlog.append(sent * call_tuples - answers[-1][0])
        for position, _, _ in answers:
            batch = (position - 1) // call_tuples
            latency = (arrived - origin - due[batch] * 1e9) / 1e6
            worst = max(worst, latency)
            if batch >= high_calls:
                low_latencies.append(latency)
    slope = estimators.least_squares_slope(moments, backlog)
    detail = {
        "loadgen.lag_p99_ms": lag_p99,
        "loadgen.achieved_rate_tuples_per_s": (len(in_window) - 1)
        * call_tuples
        / ((starts[in_window[-1]] - starts[in_window[0]]) / 1e9),
        "loadgen.backlog_slope_tuples_per_s": slope,
        "loadgen.answer_latency_max_ms": worst,
    }
    if low_latencies:
        low_latencies.sort()
        detail["loadgen.r10k.answer_latency_p50_ms"] = estimators.quantile(
            low_latencies, 0.5
        )
        detail["loadgen.r10k.answer_latency_p99_ms"] = estimators.quantile(
            low_latencies, 0.99
        )
    return detail
