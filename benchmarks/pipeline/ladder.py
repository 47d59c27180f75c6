"""The ladder replay: one rung per layer, from kernel to socket.

The same seeded input is pushed through each layer's *public*
functions one rung at a time, with a span around every call, so each
layer gets a cost per tuple measured in isolation.  The upper rungs
consume what the lower ones produced: the router's batches are the
frames the codec encodes, the ring carries and the shards fold, and
the shards' outputs are what the merger merges.

A rung that contains another reports *self* time as well: its own
per-tuple time minus the contained rung's, measured on the same input
(``StreamEngine.feed_many`` contains ``SharedSlickDeque.feed_many``,
which contains ``PartialAggregator.feed_many``, which contains the
kernel fold; ``ServiceGateway`` contains ``AggregationService``).

Spans are recorded from this file only — nothing inside ``src/repro``
is instrumented — and at most :data:`CALL_SPAN_CAP` call spans per
rung are kept in the span file; every call still counts in the rung's
metrics.
"""

from __future__ import annotations

import gc
import socket
import statistics
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import estimators
import inputs
from workloads import COUNT_QUERIES, PERTUPLE_QUERIES, TIME_QUERIES

#: Call spans kept per rung in the span file.
CALL_SPAN_CAP = 400
#: Tuples per second of ``--seconds`` through each engine-side bulk
#: rung (~0.3 us/tuple), each service- or net-side rung (~2 us/tuple)
#: and each per-tuple rung (~3 us/tuple): about 0.2 s a rung at 8 s.
ENGINE_TUPLES_PER_SECOND = 64 * 1024
BULK_TUPLES_PER_SECOND = 16 * 1024
PERTUPLE_TUPLES_PER_SECOND = 8 * 1024
BASELINE_WINDOW = 1024


class SpanRecorder:
    """Spans kept in memory: ``{name, start_ns, end_ns, parent, workload}``.

    A span's id is its index in :attr:`spans`; ``parent`` is the id of
    the span that caused it, ``None`` for the root.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: Optional[int]
    ) -> int:
        self.spans.append(
            {
                "name": name,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "parent": parent,
                "workload": self.workload,
            }
        )
        return len(self.spans) - 1

    def open(self, name: str, parent: Optional[int]) -> int:
        return self.add(name, time.perf_counter_ns(), 0, parent)

    def close(self, span: int) -> None:
        self.spans[span]["end_ns"] = time.perf_counter_ns()

    def add_calls(
        self, name: str, starts: Sequence[int], ends: Sequence[int], parent: int
    ) -> None:
        """One child span per call, the first :data:`CALL_SPAN_CAP` only."""
        for start, end in zip(starts[:CALL_SPAN_CAP], ends[:CALL_SPAN_CAP]):
            self.add(name, start, end, parent)


class Rung:
    """Times calls under one rung span and sums them per tuple.

    Like a workload's segments, a rung has a calibration spin on each
    side (``spins`` carries the last reading from rung to rung) and
    its times are divided by what the spins say the box lost.
    """

    def __init__(
        self, recorder: SpanRecorder, root: int, name: str, spins: List[float]
    ):
        self._recorder = recorder
        self._name = name
        self._spins = spins
        self._slowdown = 1.0
        self._span = recorder.open(name, root)
        self.starts = array("q")
        self.ends = array("q")

    def calls(self, function: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """``function(item)`` for each item, stamped; returns the results."""
        now_ns = time.perf_counter_ns
        add_start = self.starts.append
        add_end = self.ends.append
        results = []
        keep = results.append
        for item in items:
            add_start(now_ns())
            result = function(item)
            add_end(now_ns())
            keep(result)
        return results

    def done(self) -> "Rung":
        self._recorder.close(self._span)
        self._recorder.add_calls(
            self._name + ".call", self.starts, self.ends, self._span
        )
        after = estimators.calibration_spin()
        self._slowdown = estimators.slowdown(self._spins + [after])
        self._spins[:] = [after]
        return self

    def per(self, count: int) -> float:
        """Normalised nanoseconds of call time per ``count`` units of work."""
        return (sum(self.ends) - sum(self.starts)) / max(1, count) / self._slowdown

    def quantiles(self, *qs: float) -> List[float]:
        durations = sorted(end - start for start, end in zip(self.starts, self.ends))
        return [estimators.quantile(durations, q) / self._slowdown for q in qs]


class _SinkServer(threading.Thread):
    """A loopback TCP listener that reads and discards (client rung)."""

    def __init__(self) -> None:
        super().__init__(name="pipeline-sink", daemon=True)
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]

    def run(self) -> None:
        connection, _ = self._listener.accept()
        with connection:
            while connection.recv(1 << 16):
                pass
        self._listener.close()


def run_ladder(
    recorder: SpanRecorder, seed: int, seconds: float
) -> Dict[str, float]:
    """Every micro rung once; returns the per-layer metrics they yield."""
    from repro.baselines.daba import DABAAggregator
    from repro.baselines.flatfit import FlatFITAggregator
    from repro.baselines.twostacks import TwoStacksAggregator
    from repro.core import SharedSlickDeque, SlickDequeInv, SlickDequeNonInvMulti
    from repro.kernels import kernel_for
    from repro.net.client import AggregationClient
    from repro.net.protocol import (
        FrameDecoder,
        FrameType,
        decode_answers,
        encode_answers,
        encode_frame,
    )
    from repro.operators.instrumented import CountingOperator
    from repro.operators.registry import get_operator
    from repro.service.gateway import ServiceGateway
    from repro.service.merge import GlobalMerger
    from repro.service.partition import Router
    from repro.service.service import AggregationService
    from repro.service.shard import ShardConfig, ShardState
    from repro.service.slices import SliceClock
    from repro.service.transport.frame import decode_frame, encode_batch_frame
    from repro.service.transport.ring import SpscRing
    from repro.stream.engine import StreamEngine
    from repro.stream.outoforder import TimestampReorderBuffer
    from repro.stream.sink import CollectSink
    from repro.windows.partial import PartialAggregator
    from repro.windows.plan import build_shared_plan
    from repro.windows.query import Query
    from repro.windows.timebased import TimeQuery, TimeWindowEngine

    metrics: Dict[str, float] = {}
    root = recorder.open("ladder", None)
    bulk_tuples = max(16, int(BULK_TUPLES_PER_SECOND * seconds) // 1024) * 1024
    engine_tuples = bulk_tuples * (ENGINE_TUPLES_PER_SECOND // BULK_TUPLES_PER_SECOND)
    step_tuples = max(8 * 1024, int(PERTUPLE_TUPLES_PER_SECOND * seconds))

    keys, values = inputs.keyed_stream(seed, engine_tuples)
    floats = inputs.spiky_floats(seed, step_tuples)
    event_times, event_values = inputs.disordered_events(seed, engine_tuples)
    batches_1024 = inputs.chunked(values, 1024)
    del keys[bulk_tuples:]
    queries = [Query(*spec) for spec in COUNT_QUERIES]
    sum_op = get_operator("sum")
    max_op = get_operator("max")
    # The replay's inputs are millions of long-lived objects the
    # workloads' own processes never hold at once; kept out of the
    # collector's sight, a rung pays for its own garbage only.
    gc.collect()
    gc.freeze()

    spins = [estimators.calibration_spin()]

    def rung(name: str) -> Rung:
        return Rung(recorder, root, name, spins)

    # -- kernels -------------------------------------------------------
    kernel = kernel_for(sum_op)
    identity = sum_op.identity
    fold = rung("kernels.fold")
    fold.calls(lambda batch: kernel.fold(batch, identity), batches_1024)
    metrics["kernels.fold_ns_per_tuple"] = fold.done().per(engine_tuples)
    typed = [memoryview(array("q", batch)) for batch in batches_1024]
    fold_typed = rung("kernels.fold_typed")
    fold_typed.calls(lambda batch: kernel.fold(batch, identity), typed)
    metrics["kernels.fold_typed_ns_per_tuple"] = fold_typed.done().per(engine_tuples)
    lift = rung("kernels.lift_many")
    lift.calls(kernel.lift_many, batches_1024)
    metrics["kernels.lift_ns_per_tuple"] = lift.done().per(engine_tuples)

    # -- core ----------------------------------------------------------
    inv = SlickDequeInv(sum_op, COUNT_QUERIES[0][0])
    push_many = rung("core.inv_push_many")
    push_many.calls(inv.push_many, batches_1024)
    metrics["core.inv_push_many_ns_per_tuple"] = push_many.done().per(engine_tuples)

    ranges = [spec[0] for spec in PERTUPLE_QUERIES]
    noninv = SlickDequeNonInvMulti(max_op, ranges)
    lengths: List[int] = []

    def noninv_step(value: float) -> None:
        noninv.step(value)

    step = rung("core.noninv_step")
    for start in range(0, step_tuples, 256):
        step.calls(noninv_step, floats[start : start + 256])
        lengths.append(noninv.occupancy)
    step.done()
    p50, p999 = step.quantiles(0.5, 0.999)
    metrics["core.noninv_step_ns_p50"] = p50
    metrics["core.noninv_step_ns_p999"] = p999
    metrics["core.noninv_deque_len_mean"] = statistics.fmean(lengths)
    metrics["core.noninv_deque_len_max"] = max(lengths)
    metrics["core.memory_words"] = noninv.memory_words()
    counting = CountingOperator(get_operator("max"))
    counted = SlickDequeNonInvMulti(counting, ranges)
    for value in floats:
        counted.step(value)
    metrics["core.combine_ops_per_tuple"] = counting.ops / step_tuples

    # -- baselines -----------------------------------------------------
    for label, factory in (
        ("twostacks", TwoStacksAggregator),
        ("daba", DABAAggregator),
        ("flatfit", FlatFITAggregator),
    ):
        aggregator = factory(get_operator("max"), BASELINE_WINDOW)
        baseline = rung(f"baselines.{label}_step")
        baseline.calls(aggregator.step, floats)
        p50, p999 = baseline.done().quantiles(0.5, 0.999)
        metrics[f"baselines.{label}_step_ns_p50"] = p50
        metrics[f"baselines.{label}_step_ns_p999"] = p999

    # -- windows -------------------------------------------------------
    plan_times = []
    for _ in range(25):
        started = time.perf_counter_ns()
        plan = build_shared_plan(queries, "pairs")
        plan_times.append((time.perf_counter_ns() - started) / 1e3)
    metrics["windows.plan_build_us"] = statistics.median(plan_times)
    partials_of = PartialAggregator(sum_op, plan)
    partial = rung("windows.partial_feed_many")
    partial.calls(partials_of.feed_many, batches_1024)
    metrics["windows.partial_feed_many_ns_per_tuple"] = partial.done().per(engine_tuples)

    time_queries = [TimeQuery(*spec) for spec in TIME_QUERIES]
    time_engine = TimeWindowEngine(time_queries, sum_op)
    sorted_events = sorted(zip(event_times, event_values))[:step_tuples]
    timebased = rung("windows.timebased_feed")
    timebased.calls(lambda record: time_engine.feed(*record), sorted_events)
    metrics["windows.timebased_feed_ns_per_tuple"] = timebased.done().per(
        len(sorted_events)
    )

    # -- the engine and, inside it, core's shared-plan aggregation ------
    shared = SharedSlickDeque(queries, sum_op, plan=plan)
    shared_feed = rung("core.shared_feed_many")
    shared_feed.calls(shared.feed_many, batches_1024)
    shared_ns = shared_feed.done().per(engine_tuples)
    metrics["core.shared_feed_many_ns_per_tuple"] = shared_ns
    metrics["core.final_self_ns_per_tuple"] = (
        shared_ns - metrics["windows.partial_feed_many_ns_per_tuple"]
    )

    sink = CollectSink()
    engine = StreamEngine(queries, sum_op, sinks=[sink])
    feed_many = rung("stream.engine.feed_many")
    feed_many.calls(engine.feed_many, batches_1024)
    engine_ns = feed_many.done().per(engine_tuples)
    metrics["stream.engine.feed_many_ns_per_tuple"] = engine_ns
    metrics["stream.engine.self_ns_per_tuple"] = engine_ns - shared_ns
    metrics["stream.engine.answers_per_ktuple"] = (
        len(sink.answers) / engine_tuples * 1e3
    )
    step_engine = StreamEngine(
        [Query(*spec) for spec in PERTUPLE_QUERIES], max_op, sinks=[CollectSink()]
    )
    feed = rung("stream.engine.feed")
    feed.calls(step_engine.feed, floats)
    p50, p999 = feed.done().quantiles(0.5, 0.999)
    metrics["stream.engine.feed_ns_per_tuple"] = feed.per(step_tuples)
    metrics["stream.engine.feed_ns_p50"] = p50
    metrics["stream.engine.feed_ns_p999"] = p999

    # -- stream.outoforder ---------------------------------------------
    reorder = TimestampReorderBuffer(inputs.EVENT_LATENESS, "side_output")
    event_batches = inputs.chunked(list(zip(event_times, event_values)), 512)
    released_counts: List[int] = []
    buffered: List[int] = []

    def push_batch(batch: Sequence[Tuple[float, int]]) -> None:
        out: List[Any] = []
        reorder.push_many_into(batch, out)
        released_counts.append(len(out))

    outoforder = rung("stream.outoforder.push_many_into")
    for batch in event_batches:
        outoforder.calls(push_batch, [batch])
        buffered.append(len(reorder))
    metrics["stream.outoforder.push_many_ns_per_tuple"] = outoforder.done().per(
        engine_tuples
    )
    metrics["stream.outoforder.buffer_len_max"] = max(buffered)
    metrics["stream.outoforder.released_per_batch_mean"] = statistics.fmean(
        released_counts
    )
    metrics["stream.outoforder.late_records"] = reorder.late_records

    # -- service.partition -> frame -> ring -> shard -> merge -----------
    records = list(zip(keys, values))
    chunks = inputs.chunked(records, 1024)
    router = Router(2, 256, SliceClock(plan))
    route = rung("service.partition.route")
    routed = route.calls(router.put_many, chunks)
    routed.extend(route.calls(lambda _: router.flush(), [None]))
    route.done()
    batches = [batch for group in routed for batch in group]
    metrics["service.partition.route_ns_per_tuple"] = route.per(bulk_tuples)
    metrics["service.partition.batches_per_ktuple"] = len(batches) / bulk_tuples * 1e3
    metrics["service.partition.typed_column_share"] = sum(
        isinstance(batch.values, array) for batch in batches
    ) / len(batches)

    encode = rung("service.transport.frame.encode")
    frames = encode.calls(
        lambda batch: encode_batch_frame(
            batch.shard, batch.seq, batch.watermark, batch.positions,
            batch.keys, batch.values, batch.traces,
        ),
        batches,
    )
    metrics["service.transport.frame.encode_ns_per_tuple"] = encode.done().per(
        bulk_tuples
    )
    columnar = [frame for frame in frames if frame is not None]
    metrics["service.transport.frame.bytes_per_tuple"] = (
        sum(len(frame) for frame in columnar) / bulk_tuples
    )

    ring = SpscRing()
    retries = 0
    try:

        def roundtrip(frame: bytes) -> None:
            nonlocal retries
            while not ring.try_write(frame):
                retries += 1
            view = ring.try_read()
            view.release()
            ring.commit()

        through_ring = rung("service.transport.ring.roundtrip")
        through_ring.calls(roundtrip, columnar)
        through_ring.done()
    finally:
        ring.close()
        ring.unlink()
    metrics["service.transport.ring.roundtrip_ns_per_frame"] = through_ring.per(
        len(columnar)
    )
    metrics["service.transport.ring.write_full_retries"] = retries

    def decode(frame: bytes) -> None:
        decode_frame(memoryview(frame)).release()

    decoding = rung("service.transport.frame.decode")
    decoding.calls(decode, columnar)
    metrics["service.transport.frame.decode_ns_per_tuple"] = decoding.done().per(
        bulk_tuples
    )

    shards = [
        ShardState(ShardConfig(shard, 2, tuple(queries), sum_op)) for shard in (0, 1)
    ]
    shard_fold = rung("service.shard.process")
    outputs = shard_fold.calls(
        lambda batch: shards[batch.shard].process(batch), batches
    )
    metrics["service.shard.fold_ns_per_tuple"] = shard_fold.done().per(bulk_tuples)

    merger = GlobalMerger(queries, sum_op, "pairs", 2)
    merge = rung("service.merge.on_output")
    released = merge.calls(merger.on_output, outputs)
    merged = sum(len(answers) for answers in released)
    metrics["service.merge.on_output_ns_per_answer"] = merge.done().per(merged)
    metrics["service.merge.answers"] = merged

    # -- service.service / service.gateway ------------------------------
    def inline_service() -> AggregationService:
        return AggregationService(
            queries, sum_op, num_shards=2, transport="inline", batch_size=256
        )

    service = inline_service()

    def submit_and_poll(chunk: Sequence[Tuple[str, int]]) -> None:
        service.submit_many(chunk)
        service.poll()

    inline = rung("service.service.submit_many")
    inline.calls(submit_and_poll, chunks)
    service_ns = inline.done().per(bulk_tuples)
    answers = service.close().answers
    metrics["service.service.inline_ns_per_tuple"] = service_ns

    gateway = ServiceGateway(inline_service())

    def gateway_submit_and_poll(chunk: Sequence[Tuple[str, int]]) -> None:
        gateway.submit_many(chunk)
        gateway.poll()

    through_gateway = rung("service.gateway.submit_many")
    through_gateway.calls(gateway_submit_and_poll, chunks)
    metrics["service.gateway.self_ns_per_tuple"] = (
        through_gateway.done().per(bulk_tuples) - service_ns
    )
    gateway.close()

    # -- net.protocol ---------------------------------------------------
    wire_batches = inputs.chunked(records, 256)
    wire_encode = rung("net.protocol.encode_frame")
    wire_frames = wire_encode.calls(
        lambda batch: encode_frame(FrameType.SUBMIT_BATCH, batch), wire_batches
    )
    metrics["net.protocol.encode_ns_per_tuple"] = wire_encode.done().per(bulk_tuples)
    metrics["net.protocol.bytes_per_tuple"] = (
        sum(len(frame) for frame in wire_frames) / bulk_tuples
    )
    decoder = FrameDecoder()

    def wire_decode(frame: bytes) -> List[Any]:
        decoder.feed(frame)
        return list(decoder.frames())

    wire_decoding = rung("net.protocol.decode_frame")
    wire_decoding.calls(wire_decode, wire_frames)
    metrics["net.protocol.decode_ns_per_tuple"] = wire_decoding.done().per(
        bulk_tuples
    )
    answer_groups = inputs.chunked(answers, 48)
    answers_encode = rung("net.protocol.encode_answers")
    answer_frames = answers_encode.calls(
        lambda group: encode_frame(FrameType.ANSWERS, encode_answers(group)),
        answer_groups,
    )
    metrics["net.protocol.answers_encode_ns_per_answer"] = answers_encode.done().per(
        len(answers)
    )

    def answers_decode(frame: bytes) -> None:
        decoder.feed(frame)
        for _, payload in decoder.frames():
            decode_answers(payload)

    answers_decoding = rung("net.protocol.decode_answers")
    answers_decoding.calls(answers_decode, answer_frames)
    metrics["net.protocol.answers_decode_ns_per_answer"] = (
        answers_decoding.done().per(len(answers))
    )

    # -- net.client -----------------------------------------------------
    sink_server = _SinkServer()
    sink_server.start()
    # The sink never replies: the short timeout only bounds close().
    client = AggregationClient("127.0.0.1", sink_server.port, request_timeout=0.5)
    try:
        sending = rung("net.client.send_frame")
        sending.calls(
            lambda batch: client.send_frame(FrameType.SUBMIT_BATCH, batch),
            wire_batches,
        )
        metrics["net.client.send_ns_per_tuple"] = sending.done().per(bulk_tuples)
    finally:
        client.close()
        sink_server.join(10.0)

    recorder.close(root)
    return metrics


#: The rungs a workload's tuples pass through, as per-tuple metrics:
#: what the ladder can attribute of the workload's own wall time.
PATHS: Dict[str, Tuple[str, ...]] = {
    "engine_bulk_sum": ("stream.engine.feed_many_ns_per_tuple",),
    "engine_pertuple_max": ("stream.engine.feed_ns_per_tuple",),
    "engine_event_disorder": (
        "stream.outoforder.push_many_ns_per_tuple",
        "windows.timebased_feed_ns_per_tuple",
    ),
    "service_shm_sum": (
        "service.partition.route_ns_per_tuple",
        "service.transport.frame.encode_ns_per_tuple",
        "service.transport.ring.roundtrip_ns_per_tuple",
        "service.transport.frame.decode_ns_per_tuple",
        "service.shard.fold_ns_per_tuple",
        "service.merge.on_output_ns_per_tuple",
    ),
    "socket_closed_sum": (
        "net.client.send_ns_per_tuple",
        "net.protocol.decode_ns_per_tuple",
        "service.service.inline_ns_per_tuple",
        "service.gateway.self_ns_per_tuple",
        "net.protocol.answers_encode_ns_per_tuple",
        "net.protocol.answers_decode_ns_per_tuple",
    ),
}
PATHS["socket_open_sum"] = PATHS["socket_closed_sum"]


def attributed_ns_per_tuple(workload: str, metrics: Dict[str, float]) -> float:
    """Sum of the ladder rungs on ``workload``'s path, per tuple."""
    per_frame = metrics["service.transport.ring.roundtrip_ns_per_frame"]
    answers_per_tuple = metrics["stream.engine.answers_per_ktuple"] / 1e3
    derived = {
        "service.transport.ring.roundtrip_ns_per_tuple": per_frame
        * metrics["service.partition.batches_per_ktuple"]
        / 1e3,
        "service.merge.on_output_ns_per_tuple": metrics[
            "service.merge.on_output_ns_per_answer"
        ]
        * answers_per_tuple,
        "net.protocol.answers_encode_ns_per_tuple": metrics[
            "net.protocol.answers_encode_ns_per_answer"
        ]
        * answers_per_tuple,
        "net.protocol.answers_decode_ns_per_tuple": metrics[
            "net.protocol.answers_decode_ns_per_answer"
        ]
        * answers_per_tuple,
    }
    return sum(
        derived[name] if name in derived else metrics[name]
        for name in PATHS[workload]
    )


#: The ladder's top rungs: workloads run briefly (unless one of them is
#: the traced workload itself) for the stats only a live run has, and
#: the metric prefix each contributes.
SERVED = {
    "service_shm_sum": "service.",
    "socket_closed_sum": "net.",
    "socket_open_sum": "loadgen.",
}


def trace_workload(
    name: str, seed: int, seconds: float, spawned_at: float, out_dir: Any
) -> Dict[str, Any]:
    """The traced pass of ``name`` plus the ladder; writes the span file.

    Returns the workload's own result with ``per_layer`` added: every
    per-layer metric of ``BENCHMARK.json`` by name.
    """
    import json

    import workloads

    recorder = SpanRecorder(name)
    result = workloads.run_workload(name, "trace", seed, seconds, spawned_at)
    starts, ends = result.pop("call_stamps")
    root = recorder.add(f"workload.{name}", starts[0], ends[-1], None)
    recorder.add_calls(f"workload.{name}.call", starts, ends, root)

    metrics = run_ladder(recorder, seed, seconds)
    served = {name: result}
    for other, prefix in SERVED.items():
        if other not in served:
            span = recorder.open(f"ladder.{other}", None)
            served[other] = workloads.run_workload(
                other, "trace", seed, seconds, time.monotonic()
            )
            recorder.close(span)
        metrics.update(
            (metric, value)
            for metric, value in served[other]["detail"].items()
            if metric.startswith(prefix)
        )

    wall_ns = result["wall_ns_per_tuple"]
    attributed = attributed_ns_per_tuple(name, metrics)
    calibration = result["calibration"]
    metrics.update(
        {
            "harness.calib_ns_per_iter": calibration["ns_per_iter"],
            "harness.calib_iqr_ratio": calibration["iqr_ratio"],
            "harness.inputgen_s": result["inputgen_s"],
            "harness.trace_overhead_ratio": result.get("trace_overhead_ratio", 1.0),
            "harness.segments": result["rate"]["segments"],
            "harness.wall_ns_per_tuple": wall_ns,
            "harness.attributed_ns_per_tuple": attributed,
            "harness.unattributed_share": (wall_ns - attributed) / wall_ns,
            "harness.failed_share": result["failed"] / result["attempted"],
            # Too unsteady on this box to carry a bound (see README),
            # so reported here, from the traced pass.
            "step_latency_p50_ns": result["detail"]["step_latency_p50_ns"],
            "step_latency_p999_ns": result["detail"]["step_latency_p999_ns"],
            "answer_latency_p99_ms": result["detail"]["answer_latency_p99_ms"],
        }
    )
    result["per_layer"] = metrics
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace_{name}.json", "w") as handle:
        json.dump({"workload": name, "seed": seed, "spans": recorder.spans}, handle)
    return result
