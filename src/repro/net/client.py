"""Sync and async client libraries for the aggregation server.

Both clients speak the frame protocol of :mod:`repro.net.protocol`
over one TCP connection with strictly ordered request/reply matching.
They are one request core with two transports: every request and the
RETRY policy are defined once, on a shared base, and the two classes
supply only how bytes are sent, received and slept on — a request
method returns its value on the sync client, an awaitable of it on
the async one.  The resilience policy:

* **connect timeout** — connection establishment past the deadline
  raises :class:`~repro.errors.ClientTimeoutError`;
* **request timeout** — a reply not arriving in time raises
  :class:`~repro.errors.ClientTimeoutError` (the connection is then
  desynchronised and should be closed);
* **bounded retry with exponential backoff** — ``RETRY`` replies (the
  server's admission control shedding load) are retried up to
  ``max_retries`` times with doubling backoff; exhaustion raises
  :class:`~repro.errors.ServerOverloadedError`.

:meth:`AggregationClient.submit_batches` pipelines: every batch is
written before any reply is read, which is what makes a single client
able to saturate (and observe shedding from) the server's admission
budget.  Shed batches are retried one at a time afterwards unless
``retry_shed=False``, in which case the per-batch accepted counts
report ``0`` for shed batches and the caller decides.

Tracing: pass ``trace_id=`` (mint one with
:func:`~repro.telemetry.mint_trace_id`) to ``submit``/``submit_batch``
/``poll`` and the id rides the frame's protocol-v2 header through the
server's whole pipeline; the id carried by the most recent reply is
readable from ``last_reply_trace_id`` — for an ANSWERS reply that is
the trace of the submission whose record closed the newest answer's
window.  Untraced requests keep emitting v1 frames, so tracing is
strictly opt-in on the wire.

Both clients open every connection with the :data:`PREFACE` (one
``HELLO`` frame, never answered), declaring that they read answer
columns: the server then sends each POLL's eligible answers as one
columnar envelope, which :func:`~repro.net.protocol.decode_answers`
turns into the same ``(position, query, value)`` list as the tagged
rows.  A server older than ``HELLO`` refuses the preface (ERROR, then
close) at the first request — upgrade servers first.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    ClientTimeoutError,
    ProtocolError,
    ServerOverloadedError,
    ServiceError,
)
from repro.net.protocol import (
    FrameDecoder,
    FrameType,
    SubmitRequest,
    build_submit,
    build_submit_batch,
    build_submit_column,
    build_submit_event,
    build_submit_event_batch,
    decode_answers,
    encode_frame,
)

_RECV_CHUNK = 64 * 1024

#: What both clients write first on every connection: ``HELLO``, so
#: the server sends this connection's eligible answers as columns.
#: It gets no reply, so request/reply pairing starts after it.
PREFACE = encode_frame(FrameType.HELLO)

_REQUEST_TIMED_OUT = (
    "request timed out waiting for a reply; the connection is "
    "desynchronised and must be closed"
)


def _suggested_delay(
    reply: Any, attempt: int, base: float, maximum: float
) -> float:
    """Deterministic exponential backoff (``base * 2**attempt``,
    capped), honouring the server's ``retry_after`` hint."""
    delay = min(maximum, base * (2**attempt))
    if isinstance(reply, dict):
        hint = reply.get("retry_after")
        if isinstance(hint, (int, float)) and hint > 0:
            delay = max(delay, float(min(hint, maximum)))
    return delay


def _raise_reply_error(payload: Any) -> None:
    """Turn an ERROR reply payload into the matching exception."""
    if isinstance(payload, dict):
        name = payload.get("error", "ServiceError")
        message = payload.get("message", repr(payload))
    else:  # pragma: no cover - defensive against foreign servers
        name, message = "ServiceError", repr(payload)
    if name == "ProtocolError":
        raise ProtocolError(f"server rejected the request: {message}")
    raise ServiceError(f"server error ({name}): {message}")


# How each kind of reply payload becomes the request's return value.


def _accepted(reply: Any) -> int:
    return reply.get("accepted", 0)


def _whole(reply: Any) -> Any:
    return reply


def _drained(reply: Any) -> Tuple[List[Tuple[Any, ...]], Dict[str, Any]]:
    if reply.get("per_key"):
        reply["per_key"] = {
            key: decode_answers(rows) for key, rows in reply["per_key"].items()
        }
    return decode_answers(reply.get("answers", [])), reply


class _RequestCore:
    """Every request and the RETRY policy, written once.

    A request method builds its frame, names how its reply is read and
    returns ``self._exchange(request, finish, trace_id)``.  A transport
    (subclass) supplies ``_exchange`` — perform each step the
    :meth:`_round_trip` generator yields and return its value — plus
    ``send_frame`` / ``read_reply`` / ``close``.
    """

    def __init__(
        self, max_retries: int, backoff_base: float, backoff_max: float
    ):
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._decoder = FrameDecoder()
        self._frames: List[Any] = []
        self._closed = False
        #: Trace id carried by the most recent reply frame (``None``
        #: for v1 replies / untraced requests).
        self.last_reply_trace_id: Optional[int] = None

    # -- reply buffer -----------------------------------------------

    def _buffer_received(self, data: bytes) -> None:
        """Decode whatever reply frames ``data`` completes."""
        if not data:
            raise ConnectionError("server closed the connection mid-request")
        self._decoder.feed(data)
        self._frames.extend(self._decoder.frames_traced())

    def _next_reply(self) -> Tuple[FrameType, Any]:
        """Pop the oldest buffered reply (replies match request order)."""
        frame = self._frames.pop(0)
        self.last_reply_trace_id = frame.trace_id
        return frame.frame_type, frame.payload

    # -- the request/retry policy -----------------------------------

    def _round_trip(
        self,
        request: Optional[SubmitRequest],
        finish: Callable[[Any], Any],
        trace_id: Optional[int] = None,
    ) -> Generator[Tuple[str, Any], Any, Any]:
        """One request/reply round-trip with RETRY backoff, as steps.

        Yields ``("send", frame bytes)`` — write the frame, read the
        next reply and send ``(reply type, payload)`` back in — or
        ``("sleep", seconds)``; returns ``finish(reply payload)``.
        ``request`` is ``(frame type, payload, event time)``; ``None``
        (an empty column) finishes with ``0`` without a single step.
        """
        if request is None:
            return 0
        frame_type, payload, event_time = request
        frame = encode_frame(frame_type, payload, trace_id, event_time)
        for attempt in range(self.max_retries + 1):
            reply_type, reply = yield ("send", frame)
            if reply_type is not FrameType.RETRY:
                if reply_type is FrameType.ERROR:
                    _raise_reply_error(reply)
                return finish(reply)
            if attempt < self.max_retries:
                delay = _suggested_delay(
                    reply, attempt, self.backoff_base, self.backoff_max
                )
                yield ("sleep", delay)
        raise ServerOverloadedError(
            f"request shed {self.max_retries + 1} times; "
            "the server is saturated"
        )

    # -- public API -------------------------------------------------

    def submit(
        self, key: Any, value: Any, trace_id: Optional[int] = None
    ):
        """Submit one keyed record; returns the accepted count (1)."""
        return self._exchange(build_submit(key, value), _accepted, trace_id)

    def submit_batch(
        self,
        records: Iterable[Tuple[Any, Any]],
        trace_id: Optional[int] = None,
    ):
        """Submit many records in one frame; returns the accepted count."""
        return self._exchange(
            build_submit_batch(records), _accepted, trace_id
        )

    def submit_column(
        self,
        key: Any,
        values: Iterable[Any],
        trace_id: Optional[int] = None,
    ):
        """Submit one key's value column in a single packed frame.

        Homogeneous int64/float64 columns travel as one packed byte
        blob (8 bytes per record, no per-record tags or tuples);
        anything else falls back to the tagged object-column encoding,
        which is semantically identical.  The server ingests either as
        the rows of :meth:`submit_batch`.  Returns the accepted count
        (``0`` for an empty column, without touching the connection).
        """
        return self._exchange(
            build_submit_column(key, values), _accepted, trace_id
        )

    def submit_event(
        self,
        key: Any,
        value: Any,
        timestamp: float,
        trace_id: Optional[int] = None,
    ):
        """Submit one event-timestamped record (``"time"``-mode server).

        The timestamp rides the protocol-v3 event-time header field —
        this is the only request that emits v3 framing, so a client
        that never calls it stays wire-compatible with pre-v3 servers.
        Returns the accepted count (1).  A record behind the server's
        watermark raises
        :class:`~repro.errors.ServiceError` under the service's
        ``"raise"`` late policy.
        """
        return self._exchange(
            build_submit_event(key, value, timestamp), _accepted, trace_id
        )

    def submit_event_batch(
        self,
        records: Iterable[Tuple[Any, float, Any]],
        trace_id: Optional[int] = None,
    ):
        """Submit ``(key, timestamp, value)`` triples in one frame.

        Timestamps travel in the payload, so the frame itself needs no
        v3 header field.  Returns the accepted count.
        """
        return self._exchange(
            build_submit_event_batch(records), _accepted, trace_id
        )

    def poll(self, trace_id: Optional[int] = None):
        """Answers released since any client's last poll.

        After the call, ``last_reply_trace_id`` holds the trace of the
        submission whose record closed the newest traced answer's
        window (or this request's own ``trace_id`` when none were).
        """
        return self._exchange(
            (FrameType.POLL, None, None), decode_answers, trace_id
        )

    def stats(self):
        """Server + service stats snapshot (see ``docs/serving.md``)."""
        return self._exchange((FrameType.STATS, None, None), _whole)

    def drain(self):
        """Flush the service; returns (every answer, final stats).

        The answers are the complete set, those earlier polls returned
        included (``docs/serving.md``, ``DRAIN``).  The second element
        is the whole reply dict; its ``"per_key"`` rows (per-key mode)
        are decoded like the answers.
        """
        return self._exchange((FrameType.DRAIN, None, None), _drained)


class AggregationClient(_RequestCore):
    """Blocking TCP client for :class:`~repro.net.server.AggregationServer`.

    Args:
        host: Server address.
        port: Server port.
        connect_timeout: Seconds allowed for connection establishment.
        request_timeout: Seconds allowed per request round-trip
            (``None`` waits forever).
        max_retries: RETRY replies absorbed per request before
            :class:`~repro.errors.ServerOverloadedError`.
        backoff_base: First retry delay, in seconds (doubles each time).
        backoff_max: Upper bound on a single retry delay.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = 30.0,
        max_retries: int = 8,
        backoff_base: float = 0.02,
        backoff_max: float = 1.0,
    ):
        super().__init__(max_retries, backoff_base, backoff_max)
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except socket.timeout as exc:
            raise ClientTimeoutError(
                f"connecting to {host}:{port} exceeded "
                f"{connect_timeout} seconds"
            ) from exc
        # Else a POLL after a SUBMIT_BATCH waits for that batch's ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(request_timeout)
        self._sock.sendall(PREFACE)

    def send_frame(
        self,
        frame_type: FrameType,
        payload: Any,
        trace_id: Optional[int] = None,
        event_time: Optional[float] = None,
    ) -> None:
        """Write one request frame without waiting for its reply."""
        self._sock.sendall(
            encode_frame(frame_type, payload, trace_id, event_time)
        )

    def read_reply(self) -> Tuple[FrameType, Any]:
        """Read the next reply frame (in request order)."""
        while not self._frames:
            try:
                data = self._sock.recv(_RECV_CHUNK)
            except socket.timeout as exc:
                raise ClientTimeoutError(_REQUEST_TIMED_OUT) from exc
            self._buffer_received(data)
        return self._next_reply()

    def _exchange(self, request, finish, trace_id=None) -> Any:
        steps = self._round_trip(request, finish, trace_id)
        reply = None
        try:
            while True:
                action, argument = steps.send(reply)
                if action == "send":
                    self._sock.sendall(argument)
                    reply = self.read_reply()
                else:
                    time.sleep(argument)
                    reply = None
        except StopIteration as finished:
            return finished.value

    def submit_batches(
        self,
        batches: Sequence[Iterable[Tuple[Any, Any]]],
        retry_shed: bool = True,
    ) -> List[int]:
        """Pipeline many SUBMIT_BATCH frames, then read all replies.

        All frames go out in one write before any reply is read, so the
        server sees the burst at once — its admission budget, not this
        client's pacing, decides what is shed.  Returns per-batch
        accepted counts (``0`` where the server shed and
        ``retry_shed`` is off); shed batches are re-submitted
        sequentially with backoff when ``retry_shed`` is on.
        """
        prepared = [build_submit_batch(batch) for batch in batches]
        if prepared:
            self._sock.sendall(b"".join(
                encode_frame(frame_type, payload)
                for frame_type, payload, _ in prepared
            ))
        accepted: List[int] = []
        shed_indexes: List[int] = []
        for index in range(len(prepared)):
            reply_type, reply = self.read_reply()
            if reply_type is FrameType.RETRY:
                shed_indexes.append(index)
                accepted.append(0)
            elif reply_type is FrameType.ERROR:
                _raise_reply_error(reply)
            else:
                accepted.append(_accepted(reply))
        if retry_shed:
            for index in shed_indexes:
                accepted[index] = self._exchange(
                    prepared[index], _accepted
                )
        return accepted

    def close(self) -> None:
        """Send CLOSE (best effort) and release the socket; idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self.send_frame(FrameType.CLOSE, None)
            self.read_reply()
        except (OSError, ConnectionError, ClientTimeoutError):
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "AggregationClient":
        """Context entry: the connected client."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context exit: close the connection."""
        self.close()


class AsyncAggregationClient(_RequestCore):
    """Asyncio twin of :class:`AggregationClient`.

    Construct via :meth:`connect`; the policy knobs match the sync
    client.  The request methods are the sync client's own (one
    definition serves both) and return awaitables here; replies are
    matched to requests by order, so concurrent callers must serialise
    their round-trips (or use separate connections).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_timeout: Optional[float],
        max_retries: int,
        backoff_base: float,
        backoff_max: float,
    ):
        super().__init__(max_retries, backoff_base, backoff_max)
        self._reader = reader
        self._writer = writer
        self.request_timeout = request_timeout

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = 30.0,
        max_retries: int = 8,
        backoff_base: float = 0.02,
        backoff_max: float = 1.0,
    ) -> "AsyncAggregationClient":
        """Open a connection, enforcing ``connect_timeout``."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout
            )
        except asyncio.TimeoutError as exc:
            raise ClientTimeoutError(
                f"connecting to {host}:{port} exceeded "
                f"{connect_timeout} seconds"
            ) from exc
        writer.write(PREFACE)
        return cls(
            reader,
            writer,
            request_timeout,
            max_retries,
            backoff_base,
            backoff_max,
        )

    async def send_frame(
        self,
        frame_type: FrameType,
        payload: Any,
        trace_id: Optional[int] = None,
        event_time: Optional[float] = None,
    ) -> None:
        """Write one request frame without waiting for its reply."""
        self._writer.write(
            encode_frame(frame_type, payload, trace_id, event_time)
        )
        await self._writer.drain()

    async def read_reply(self) -> Tuple[FrameType, Any]:
        """Read the next reply frame (in request order)."""
        while not self._frames:
            try:
                data = await asyncio.wait_for(
                    self._reader.read(_RECV_CHUNK),
                    self.request_timeout,
                )
            except asyncio.TimeoutError as exc:
                raise ClientTimeoutError(_REQUEST_TIMED_OUT) from exc
            self._buffer_received(data)
        return self._next_reply()

    async def _exchange(self, request, finish, trace_id=None) -> Any:
        steps = self._round_trip(request, finish, trace_id)
        reply = None
        try:
            while True:
                action, argument = steps.send(reply)
                if action == "send":
                    self._writer.write(argument)
                    await self._writer.drain()
                    reply = await self.read_reply()
                else:
                    await asyncio.sleep(argument)
                    reply = None
        except StopIteration as finished:
            return finished.value

    async def close(self) -> None:
        """Send CLOSE (best effort) and release the stream; idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            await self.send_frame(FrameType.CLOSE, None)
            await self.read_reply()
        except (OSError, ConnectionError, ClientTimeoutError):
            pass
        finally:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def __aenter__(self) -> "AsyncAggregationClient":
        """Async-context entry: the connected client."""
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Async-context exit: close the connection."""
        await self.close()
