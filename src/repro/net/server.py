"""Asyncio TCP server putting the sharded service behind a socket.

:class:`AggregationServer` multiplexes any number of client
connections onto one :class:`~repro.service.service.AggregationService`
through the thread-safe
:class:`~repro.service.gateway.ServiceGateway` seam.  Each connection
runs two coroutines:

* a **reader** that decodes frames off the socket and makes the
  admission decision the moment a submit is decoded (its shape is a
  row of :data:`repro.net.protocol.SUBMIT_SHAPES`, not a branch here), and
* a **processor** that answers the queued requests in *bursts* —
  everything queued when it wakes: the burst's service calls run in
  request order in one job on a one-thread executor (``block``
  backpressure may sleep), then one reply per request, in order, goes
  out in one write and one drain.  Clients can pipeline requests and
  still match replies by order; a failing call gets its own ERROR.

A connection whose first frame is ``HELLO`` (both clients send it; it
gets no reply) receives each POLL's eligible answers as answer columns
(:func:`repro.net.protocol.encode_answer_columns`); every other
connection gets the tagged answer rows, byte for byte.

Admission control bounds the records and bytes that have been decoded
but not yet acknowledged, globally and optionally per connection.
Under the ``block`` policy an exhausted budget pauses the reader —
TCP flow control then pushes back on the client, mirroring the
service's own lossless ``block`` backpressure.  Under ``shed`` the
request's records are dropped immediately and the client gets a
``RETRY`` reply (in order), mirroring ``drop``-style load shedding
with exact shed counts.  Admission never waits on the gateway's lock,
so a saturated server keeps shedding while a service call runs.

STATS replies carry throughput, a submit-latency summary read off the
``repro_net_submit_seconds`` histogram, and accepted/shed/poison
counters next to the service's own live snapshot; see
``docs/serving.md`` for the full payload schema.

Observability: every server owns a :class:`~repro.telemetry.Telemetry`
hub (or shares one passed in) and attaches it to the wrapped service,
so one registry collects per-stage latency histograms across the whole
path — decode, admission, submit (the gateway call), shard fold,
merge, and reply.  Requests whose frames carry a protocol-v2 trace id
additionally get per-stage span records under that id; the id is
echoed on replies, propagated into the service (router → shard →
merge), and attributed to the answers it produced, so a POLL reply
carries the trace of the submission that closed its windows.  Traces
slower than the hub's threshold land in the slow-op log, surfaced via
STATS under ``"telemetry"`` and via :meth:`AggregationServer.render_metrics`
(Prometheus text format; see ``docs/observability.md``).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ProtocolError, ReproError, ServiceError
from repro.net.protocol import (
    SUBMIT_SHAPES,
    Frame,
    FrameType,
    encode_answer_columns,
    encode_answers,
    encode_frame,
    try_decode_frame_traced,
)
from repro.service.gateway import ServiceGateway
from repro.service.service import AggregationService, ServiceResult
from repro.telemetry import Telemetry

#: Admission policies for an exhausted in-flight budget: ``block``
#: pauses the connection's reader (lossless; TCP pushes back on the
#: client), ``shed`` answers RETRY and drops the request's records.
ADMISSION_POLICIES = ("block", "shed")

_READ_CHUNK = 64 * 1024

#: Queue kind and value of the non-submit requests.  POLL and STATS
#: carry a ``(gateway verb, args, records)`` call, as a submit does,
#: and ride in a burst; DRAIN and CLOSE end one.
_REQUESTS = {
    FrameType.POLL: ("poll", ("poll_traced", (), 0)),
    FrameType.STATS: ("stats", ("snapshot", (), 0)),
    FrameType.DRAIN: ("drain", None),
    FrameType.CLOSE: ("close", None),
}
_CALLS = ("submit", "poll", "stats")
_ENDS_BURST = ("drain", "close", "eof", "protocol_error")

#: A queued work item: ``(kind, value, admitted bytes, trace id)``.
_Item = Tuple[str, Any, int, Optional[int]]
#: ``(frame type, payload, trace id, trace ids the reply finishes)``.
_Reply = Tuple[FrameType, Any, Optional[int], Tuple[Optional[int], ...]]


class AdmissionBudget:
    """In-flight records/bytes budget shared by one event loop.

    ``None`` limits are unlimited.  All methods must run on the owning
    event loop; :meth:`try_acquire` is synchronous (the loop is the
    mutual exclusion), :meth:`acquire`/:meth:`release` are coroutines
    so blocked acquirers can be woken.
    """

    def __init__(
        self,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.max_records = max_records
        self.max_bytes = max_bytes
        #: Records currently admitted but not yet acknowledged.
        self.records = 0
        #: Payload bytes currently admitted but not yet acknowledged.
        self.bytes = 0
        self._condition = asyncio.Condition()

    def _fits(self, records: int, nbytes: int) -> bool:
        if (
            self.max_records is not None
            and self.records + records > self.max_records
            and self.records > 0
        ):
            return False
        if (
            self.max_bytes is not None
            and self.bytes + nbytes > self.max_bytes
            and self.bytes > 0
        ):
            return False
        return not self._over_absolute(records, nbytes)

    def _over_absolute(self, records: int, nbytes: int) -> bool:
        # A request larger than the whole budget is admitted only on
        # an empty budget (otherwise it could never proceed at all).
        if self.records == 0 and self.bytes == 0:
            return False
        return (
            self.max_records is not None
            and records > self.max_records
        ) or (self.max_bytes is not None and nbytes > self.max_bytes)

    def try_acquire(self, records: int, nbytes: int) -> bool:
        """Take the budget now, or report ``False`` without waiting."""
        if not self._fits(records, nbytes):
            return False
        self.records += records
        self.bytes += nbytes
        return True

    async def acquire(self, records: int, nbytes: int) -> None:
        """Wait until the budget fits, then take it."""
        async with self._condition:
            await self._condition.wait_for(
                lambda: self._fits(records, nbytes)
            )
            self.records += records
            self.bytes += nbytes

    async def release(self, records: int, nbytes: int) -> None:
        """Return budget and wake blocked acquirers."""
        async with self._condition:
            self.records -= records
            self.bytes -= nbytes
            self._condition.notify_all()


class _Connection:
    """Per-connection accounting and optional private budget."""

    def __init__(
        self,
        connection_id: int,
        budget: Optional[AdmissionBudget],
    ):
        self.connection_id = connection_id
        self.budget = budget
        self.accepted_records = 0
        self.shed_records = 0
        #: The client opened with HELLO: it reads answer columns.
        self.answer_columns = False


class AggregationServer:
    """TCP front end for a (sharded) aggregation service.

    Args:
        service: The service to expose — an
            :class:`~repro.service.service.AggregationService` (wrapped
            in a fresh gateway) or a pre-built
            :class:`~repro.service.gateway.ServiceGateway`.
        host: Bind address.
        port: Bind port; ``0`` picks an ephemeral port, readable from
            :attr:`port` after :meth:`start`.
        max_inflight_records: Global admission budget, in records.
        max_inflight_bytes: Global admission budget, in frame bytes.
        per_connection_records: Optional per-connection record budget.
        per_connection_bytes: Optional per-connection byte budget.
        admission_policy: ``"block"`` (pause reads, lossless) or
            ``"shed"`` (drop + RETRY reply).
        retry_after: Backoff hint, in seconds, carried in RETRY replies.
        telemetry: The :class:`~repro.telemetry.Telemetry` hub to
            observe into; a fresh hub is created when ``None``.  The
            hub is attached to the wrapped service, so one registry
            carries the full decode → admission → fold → merge → reply
            stage breakdown.
        slow_threshold: Seconds above which a finished trace lands in
            the slow-op log (used only for the default hub).
    """

    def __init__(
        self,
        service: Union[AggregationService, ServiceGateway],
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight_records: Optional[int] = 65536,
        max_inflight_bytes: Optional[int] = 32 * 1024 * 1024,
        per_connection_records: Optional[int] = None,
        per_connection_bytes: Optional[int] = None,
        admission_policy: str = "shed",
        retry_after: float = 0.05,
        telemetry: Optional[Telemetry] = None,
        slow_threshold: float = 0.050,
    ):
        if admission_policy not in ADMISSION_POLICIES:
            raise ServiceError(
                f"unknown admission policy {admission_policy!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        self.gateway = (
            service
            if isinstance(service, ServiceGateway)
            else ServiceGateway(service)
        )
        self.host = host
        self._requested_port = port
        self.admission_policy = admission_policy
        self.retry_after = retry_after
        self._per_connection = (
            per_connection_records,
            per_connection_bytes,
        )
        self._budget = AdmissionBudget(
            max_inflight_records, max_inflight_bytes
        )
        # One worker: every gateway call serialises on the gateway's lock.
        self._executor = ThreadPoolExecutor(1, thread_name_prefix="repro-net")
        self._server: Optional[asyncio.AbstractServer] = None
        self._connection_tasks: set = set()
        self._next_connection_id = 0
        self._draining = False
        self._drain_result: Optional[ServiceResult] = None
        self._started_at = time.perf_counter()
        # Counters (event-loop thread only).
        self.connections_total = 0
        self.accepted_records = 0
        self.accepted_batches = 0
        self.shed_requests = 0
        self.shed_records = 0
        self.answers_served = 0
        self.protocol_errors = 0
        #: The telemetry hub every stage observes into.
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(slow_threshold=slow_threshold)
        )
        self.gateway.attach_telemetry(self.telemetry)
        registry = self.telemetry.registry
        self._decode_hist = registry.histogram(
            "repro_net_decode_seconds",
            "Per-frame wire decode latency",
        )
        self._admission_hist = registry.histogram(
            "repro_net_admission_seconds",
            "Per-request admission-control latency (includes budget "
            "waits under the block policy)",
        )
        self._submit_hist = registry.histogram(
            "repro_net_submit_seconds",
            "Per-request gateway submit call, timed inside the executor job",
        )
        self._reply_hist = registry.histogram(
            "repro_net_reply_seconds",
            "Per request: reply encode plus its burst's write and drain",
        )
        self._frames_counter = registry.counter(
            "repro_net_frames_total", "Frames decoded off the wire"
        )
        self._traced_counter = registry.counter(
            "repro_net_traced_requests_total",
            "Requests whose frame carried a v2 trace id",
        )
        self._inflight_gauge = registry.gauge(
            "repro_net_inflight_records",
            "Records admitted but not yet acknowledged",
        )

    # -- lifecycle --------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._started_at = time.perf_counter()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (convenience for scripts)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def drain(self, timeout: float = 60.0) -> ServiceResult:
        """Stop admitting records, flush the service, keep serving.

        After a drain the server still answers POLL/STATS/DRAIN (DRAIN
        is idempotent) but SUBMITs get an ERROR reply.  Returns the
        service's final :class:`~repro.service.service.ServiceResult`.
        """
        self._draining = True
        if self._drain_result is None:
            loop = asyncio.get_running_loop()
            self._drain_result = await loop.run_in_executor(
                self._executor, lambda: self.gateway.close(timeout)
            )
        return self._drain_result

    async def stop(self) -> None:
        """Stop accepting, close connections, and release resources.

        The underlying service is drained if it is still open (use
        :meth:`drain` first to observe the result), then the executor
        is shut down.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(
                *self._connection_tasks, return_exceptions=True
            )
        if not self.gateway.closed:
            await self.drain()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AggregationServer":
        """Async-context entry: start and return the server."""
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Async-context exit: stop the server."""
        await self.stop()

    # -- connection handling ----------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connection_tasks.add(task)
        self._next_connection_id += 1
        self.connections_total += 1
        per_records, per_bytes = self._per_connection
        connection = _Connection(
            self._next_connection_id,
            AdmissionBudget(per_records, per_bytes)
            if per_records is not None or per_bytes is not None
            else None,
        )
        queue: asyncio.Queue = asyncio.Queue()
        processor = asyncio.create_task(
            self._process_requests(queue, writer, connection)
        )
        try:
            await self._read_requests(reader, queue, connection)
        except asyncio.CancelledError:
            processor.cancel()
            raise
        finally:
            if not processor.cancelled():
                await queue.put(("eof", None, 0, None))
                try:
                    await processor
                except asyncio.CancelledError:
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
            self._connection_tasks.discard(task)

    async def _read_requests(
        self,
        reader: asyncio.StreamReader,
        queue: asyncio.Queue,
        connection: _Connection,
    ) -> None:
        tracer = self.telemetry.tracer
        buffer = bytearray()
        first = True
        while True:
            data = await reader.read(_READ_CHUNK)
            if not data:
                return
            buffer += data
            offset = 0
            while True:
                decode_started = time.perf_counter()
                try:
                    decoded = try_decode_frame_traced(buffer, offset)
                    hello = decoded is not None and _is_hello(
                        decoded[0], first
                    )
                except ProtocolError as error:
                    self.protocol_errors += 1
                    await queue.put(
                        ("protocol_error", str(error), 0, None)
                    )
                    return
                if decoded is None:
                    break
                frame, next_offset = decoded
                first = False
                decode_seconds = (
                    time.perf_counter() - decode_started
                )
                self._decode_hist.observe(decode_seconds)
                self._frames_counter.inc()
                nbytes = next_offset - offset
                offset = next_offset
                if hello:
                    connection.answer_columns = True
                    continue
                trace_id = frame.trace_id
                if trace_id is not None:
                    self._traced_counter.inc()
                    tracer.record(trace_id, "decode", decode_seconds)
                admit_started = time.perf_counter()
                item = await self._admit(connection, frame, nbytes)
                admission_seconds = (
                    time.perf_counter() - admit_started
                )
                if item[0] in ("submit", "shed"):
                    self._admission_hist.observe(admission_seconds)
                    tracer.record(
                        trace_id, "admission", admission_seconds
                    )
                await queue.put(item)
                if frame.frame_type is FrameType.CLOSE:
                    return
            if offset:
                del buffer[:offset]

    async def _admit(
        self, connection: _Connection, frame: Frame, nbytes: int
    ) -> _Item:
        """Turn one decoded frame into a queued work item.

        Admission control runs here, at decode time, so a pipelined
        burst is bounded (or shed) even while earlier requests are
        still being folded.
        """
        trace_id = frame.trace_id
        shape = SUBMIT_SHAPES.get(frame.frame_type)
        if shape is None:
            request = _REQUESTS.get(frame.frame_type)
            if request is not None:
                return (*request, 0, trace_id)
            # A reply-typed frame from a client is a protocol violation.
            name = frame.frame_type.name
            message = f"unexpected frame type {name} from client"
            return ("refused", message, 0, trace_id)
        try:
            args, count = shape.parse(frame.payload, frame.event_time)
        except ProtocolError as error:
            return ("refused", str(error), 0, trace_id)
        if self._draining or self.gateway.closed:
            return ("refused", "server is draining", 0, trace_id)
        if self.admission_policy == "block":
            await self._budget.acquire(count, nbytes)
            if connection.budget is not None:
                await connection.budget.acquire(count, nbytes)
        elif not self._budget.try_acquire(count, nbytes):
            return self._shed(connection, count, trace_id)
        elif connection.budget is not None and not (
            connection.budget.try_acquire(count, nbytes)
        ):
            await self._budget.release(count, nbytes)
            return self._shed(connection, count, trace_id)
        self._inflight_gauge.set(self._budget.records)
        call = (shape.verb, (*args, trace_id), count)
        return ("submit", call, nbytes, trace_id)

    def _shed(
        self,
        connection: _Connection,
        count: int,
        trace_id: Optional[int],
    ) -> _Item:
        self.shed_requests += 1
        self.shed_records += count
        connection.shed_records += count
        return ("shed", count, 0, trace_id)

    async def _process_requests(
        self,
        queue: asyncio.Queue,
        writer: asyncio.StreamWriter,
        connection: _Connection,
    ) -> None:
        """Answer queued requests in bursts, in order, one reply each.

        A burst is every submit, POLL, STATS, shed and refusal already
        queued when the processor wakes.  DRAIN, CLOSE, EOF and a
        protocol error end a burst and are answered after its replies.
        """
        while True:
            burst = [await queue.get()]
            while burst[-1][0] not in _ENDS_BURST and not queue.empty():
                burst.append(queue.get_nowait())
            end = burst.pop() if burst[-1][0] in _ENDS_BURST else None
            if burst:
                await self._answer_burst(burst, writer, connection)
            if end is None:
                continue
            kind, message, _, trace_id = end
            if kind == "eof":
                return
            if kind == "protocol_error":
                reply = _error_reply("ProtocolError", message, None)
            elif kind == "close":
                reply = (FrameType.OK, {"closed": True}, trace_id, ())
            else:
                reply = await self._drain_reply(trace_id)
            await self._flush(writer, [reply])
            if kind != "drain":
                return

    async def _answer_burst(
        self,
        burst: List[_Item],
        writer: asyncio.StreamWriter,
        connection: _Connection,
    ) -> None:
        """Run a burst's service calls in one executor job, release its
        admission budget once, then flush one reply per item."""
        calls = [value for kind, value, _, _ in burst if kind in _CALLS]
        outcomes = []
        if calls:
            records = sum(count for _, _, count in calls)
            nbytes = sum(size for _, _, size, _ in burst)
            try:
                outcomes = await asyncio.get_running_loop().run_in_executor(
                    self._executor, _run_calls, self.gateway, calls
                )
            finally:
                await self._budget.release(records, nbytes)
                if connection.budget is not None:
                    await connection.budget.release(records, nbytes)
                self._inflight_gauge.set(self._budget.records)
        results = iter(outcomes)
        replies = [self._reply_to(item, results, connection) for item in burst]
        await self._flush(writer, replies)

    def _reply_to(
        self, item: _Item, results: Iterator, connection: _Connection
    ) -> _Reply:
        """One burst item's reply; a service call takes the next result."""
        kind, value, _, trace_id = item
        if kind == "shed":
            payload = {
                "reason": "admission budget exhausted",
                "retry_after": self.retry_after,
                "shed_records": value,
            }
            return (FrameType.RETRY, payload, trace_id, (trace_id,))
        if kind == "refused":
            return _error_reply("ServiceError", value, trace_id, (trace_id,))
        result, error, seconds = next(results)
        if error is not None:
            return _error_reply(type(error).__name__, str(error), trace_id)
        if kind == "submit":
            count = value[2]
            self._submit_hist.observe(seconds)
            self.telemetry.tracer.record(trace_id, "submit", seconds)
            self.accepted_records += count
            self.accepted_batches += 1
            connection.accepted_records += count
            return (FrameType.OK, {"accepted": count}, trace_id, ())
        if kind == "stats":
            payload = self.stats_payload(result)
            return (FrameType.STATS_REPLY, payload, trace_id, (trace_id,))
        answers = [answer for answer, _ in result]
        self.answers_served += len(answers)
        # The reply carries the trace of the submission whose record
        # closed the newest answer's window, falling back to the POLL's
        # own trace id for empty/untraced results.  Answer traces end
        # with it: the answers they caused have been handed back.
        answer_traces = [trace for _, trace in result if trace is not None]
        finishes = tuple(dict.fromkeys(answer_traces))
        if trace_id not in finishes:
            finishes += (trace_id,)
        reply_trace = answer_traces[-1] if answer_traces else trace_id
        payload = None
        if connection.answer_columns:
            payload = encode_answer_columns(answers)
        if payload is None:
            payload = encode_answers(answers)
        return (FrameType.ANSWERS, payload, reply_trace, finishes)

    async def _drain_reply(self, trace_id: Optional[int]) -> _Reply:
        try:
            result = await self.drain()
        except ReproError as error:
            return _error_reply(type(error).__name__, str(error), trace_id)
        self.answers_served += len(result.answers)
        payload = {
            "answers": encode_answers(result.answers),
            "per_key": {
                key: encode_answers(rows)
                for key, rows in result.per_key.items()
            },
            "stats": _final_stats(result),
        }
        return (FrameType.OK, payload, trace_id, (trace_id,))

    async def _flush(
        self, writer: asyncio.StreamWriter, replies: List[_Reply]
    ) -> None:
        """Send ``replies`` in order with one write and one drain.

        Each reply's ``repro_net_reply_seconds`` sample and ``reply``
        span is its own encode plus the whole write and drain, which it
        waited for; the traces it ends are finished after that.
        """
        frames, encodes = [], []
        for frame_type, payload, trace_id, _ in replies:
            # Replies carry a trace id only when the request did: a v2
            # reply to a v1 request would break old decoders.
            started = time.perf_counter()
            frames.append(encode_frame(frame_type, payload, trace_id))
            encodes.append(time.perf_counter() - started)
        started = time.perf_counter()
        writer.write(b"".join(frames))
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        flushed = time.perf_counter() - started
        tracer = self.telemetry.tracer
        for (_, _, trace_id, finishes), encoded in zip(replies, encodes):
            self._reply_hist.observe(encoded + flushed)
            tracer.record(trace_id, "reply", encoded + flushed)
            for finished in finishes:
                tracer.finish(finished)

    # -- stats ------------------------------------------------------

    def stats_payload(
        self, service_snapshot: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """The STATS reply payload (see ``docs/serving.md``)."""
        uptime = time.perf_counter() - self._started_at
        latency = self._submit_hist
        return {
            "server": {
                "uptime_seconds": uptime,
                "connections_total": self.connections_total,
                "active_connections": len(self._connection_tasks),
                "accepted_records": self.accepted_records,
                "accepted_batches": self.accepted_batches,
                "shed_requests": self.shed_requests,
                "shed_records": self.shed_records,
                "answers_served": self.answers_served,
                "protocol_errors": self.protocol_errors,
                "inflight_records": self._budget.records,
                "inflight_bytes": self._budget.bytes,
                "admission_policy": self.admission_policy,
                "draining": self._draining,
                "throughput_rps": (
                    self.accepted_records / uptime
                    if uptime > 0
                    else 0.0
                ),
                "submit_latency": (
                    {
                        "count": latency.count,
                        "minimum": latency.minimum,
                        "p25": latency.quantile(0.25),
                        "median": latency.quantile(0.5),
                        "mean": latency.sum / latency.count,
                        "p75": latency.quantile(0.75),
                        "maximum": latency.maximum,
                    }
                    if latency.count
                    else None
                ),
            },
            "service": (
                service_snapshot
                if service_snapshot is not None
                else self.gateway.snapshot()
            ),
            "telemetry": self.telemetry.snapshot(),
        }

    def render_metrics(self) -> str:
        """The Prometheus text exposition of the server's hub.

        Includes the service-side instruments (shard fold, merge)
        because the hub is attached to the wrapped service; safe to
        call from any thread.
        """
        self._inflight_gauge.set(self._budget.records)
        return self.telemetry.render_text()


def _run_calls(
    gateway: ServiceGateway, calls: List[Tuple[str, Tuple[Any, ...], int]]
) -> List[Tuple[Any, Optional[Exception], float]]:
    """Run a burst's gateway calls in order (on the executor thread).

    Returns ``(result, error, seconds)`` per call.  Whatever a call
    raises is its own request's ERROR reply; the calls after it run.
    """
    outcomes = []
    for verb, args, _ in calls:
        started = time.perf_counter()
        try:
            outcome = (getattr(gateway, verb)(*args), None)
        except Exception as error:
            outcome = (None, error)
        outcomes.append((*outcome, time.perf_counter() - started))
    return outcomes


def _is_hello(frame: Frame, first: bool) -> bool:
    """Whether ``frame`` is the connection's ``HELLO`` preface.  A
    ``HELLO`` after the first frame, or with a payload, is a framing
    error: the connection gets ERROR and is closed."""
    if frame.frame_type is not FrameType.HELLO:
        return False
    if not first or frame.payload is not None:
        raise ProtocolError(
            "HELLO is legal only as a connection's first frame, with "
            "payload None"
        )
    return True


def _error_reply(name, message, trace_id, finishes=()) -> _Reply:
    payload = {"error": name, "message": message}
    return (FrameType.ERROR, payload, trace_id, finishes)


def _final_stats(result: ServiceResult) -> Dict[str, Any]:
    """Wire-friendly subset of a final :class:`ServiceResult`'s stats."""
    stats = result.stats
    return {
        "records_submitted": stats.records_submitted,
        "records_processed": stats.records_processed,
        "dropped_records": stats.dropped_records,
        "answers_emitted": stats.answers_emitted,
        "elapsed_seconds": stats.elapsed_seconds,
        "dead_letters": stats.dead_letters,
        "late_records": stats.late_records,
        "failed_shards": list(stats.failed_shards),
        "degraded": stats.degraded,
        "transport": stats.transport,
    }


class ServerThread:
    """Run an :class:`AggregationServer` on a dedicated loop thread.

    The bridge that lets synchronous code (examples, tests, the sync
    client) own a live server: :meth:`start` blocks until the server
    is accepting (so :attr:`port` is resolvable), :meth:`stop` shuts
    the loop down and joins the thread.

    Args:
        server: A constructed (not yet started) server.  Its asyncio
            primitives bind to the thread's loop on first use, so it
            must not have been started elsewhere.
    """

    def __init__(self, server: AggregationServer):
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        """Start the loop thread; returns once the port is bound."""
        if self._thread is not None:
            raise ServiceError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError(
                f"server failed to start within {timeout} seconds"
            )
        if self._startup_error is not None:
            raise ServiceError(
                f"server failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # pragma: no cover - bind races
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_requested.wait()
        await self.server.stop()

    @property
    def port(self) -> int:
        """The server's bound port (valid after :meth:`start`)."""
        return self.server.port

    def drain(self, timeout: float = 60.0) -> ServiceResult:
        """Drain the service from outside the loop thread."""
        if self._loop is None:
            raise ServiceError("server thread is not running")
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout), self._loop
        )
        return future.result(timeout + 10.0)

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join the loop thread; idempotent."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_requested is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self._stop_requested.set
                )
            except RuntimeError:
                pass  # loop already closed (startup failure path)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        """Context entry: start the thread."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context exit: stop the thread."""
        self.stop()
