"""Conformance: one suite, both clients, every ingress shape.

:class:`~repro.net.client.AggregationClient` and
:class:`~repro.net.client.AsyncAggregationClient` are one request core
with two transports, so every test here has one body and runs against
both (the sync client is driven through an adapter that makes its
results awaitable).  Also pinned here:

* the bytes each request method puts on the wire, and the bytes the
  server replies with, captured at the commit before the submit table
  existed — only an eligible batch's request bytes have changed since
  (record columns), and the old client's tagged bytes still get the
  same replies;
* a key that cannot be routed refuses its whole frame, for all five
  submit shapes, with nothing ingested and the connection still usable;
* both clients open with the ``HELLO`` preface, and a HELLO connection's
  answer columns decode to exactly the answers (by ``repr``) a
  connection without it gets as tagged rows.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro import AggregationService, Query, get_operator
from repro.errors import (
    ProtocolError,
    ServerOverloadedError,
    ServiceError,
)
from repro.net.client import (
    PREFACE,
    AggregationClient,
    AsyncAggregationClient,
)
from repro.net.protocol import (
    AnswerColumns,
    FrameDecoder,
    FrameType,
    decode_answers,
    encode_frame,
    try_decode_frame_traced,
)
from repro.net.server import AggregationServer, ServerThread
from repro.service.gateway import ServiceGateway
from repro.windows.timebased import TimeQuery

from tests import oracle
from tests.integration.net_golden import (
    GOLDEN_REPLIES,
    GOLDEN_REQUESTS,
    GOLDEN_TIME_REPLIES,
)
from tests.integration.test_net_server import RawConnection, SlowGateway
from tests.unit.test_net_protocol import decode_one

pytestmark = pytest.mark.timeout(120)

QUERIES = [Query(16, 8), Query(12, 4)]
TIME_QUERIES = [TimeQuery(2.0, 1.0), TimeQuery(5.0, 2.0)]
LATENESS = 1.0


def count_service(**kwargs) -> AggregationService:
    return AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=8,
        **kwargs,
    )


def time_service() -> AggregationService:
    return AggregationService(
        TIME_QUERIES,
        get_operator("sum"),
        num_shards=2,
        mode="time",
        transport="inline",
        lateness=LATENESS,
        batch_size=8,
    )


# -- one body, two clients ------------------------------------------


class _Awaited:
    """The sync client behind the async client's surface.

    Each call runs to completion inline and its result is handed back
    through a coroutine, so ``await client.submit(...)`` reads the same
    for both clients.  Plain attributes pass through.
    """

    def __init__(self, client: AggregationClient):
        self._client = client

    def __getattr__(self, name):
        attribute = getattr(self._client, name)
        if not callable(attribute):
            return attribute

        async def call(*args, **kwargs):
            return attribute(*args, **kwargs)

        return call


@pytest.fixture(params=["sync", "async"])
def kind(request):
    return request.param


async def connect(kind: str, port: int, **kwargs):
    if kind == "async":
        return await AsyncAggregationClient.connect(
            "127.0.0.1", port, **kwargs
        )
    return _Awaited(AggregationClient("127.0.0.1", port, **kwargs))


def converse(kind: str, port: int, body, **client_kwargs):
    """Run ``await body(client)`` over a fresh connection of ``kind``."""

    async def scenario():
        client = await connect(kind, port, **client_kwargs)
        try:
            return await body(client)
        finally:
            await client.close()

    return asyncio.run(scenario())


class ScriptedServer:
    """A one-connection peer that records requests and plays replies.

    Every request frame gets the next scripted ``(type, payload)``
    reply, or a plausible success once the script runs out; the raw
    request bytes are kept per frame.  The connection's ``HELLO``
    preface gets no reply, as from the real server, and is kept apart
    in :attr:`preface`.  It isolates the clients from the real server,
    which is what lets a test fix the exact sequence of RETRY / ERROR
    replies a client sees.
    """

    def __init__(self, script=()):
        self._script = list(script)
        self.preface = None
        self.requests = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _reply(self, frame):
        if self._script:
            reply_type, payload = self._script.pop(0)
        else:
            reply_type, payload = {
                FrameType.POLL: (FrameType.ANSWERS, []),
                FrameType.STATS: (FrameType.STATS_REPLY, {}),
                FrameType.DRAIN: (FrameType.OK, {"answers": []}),
                FrameType.CLOSE: (FrameType.OK, {"closed": True}),
            }.get(frame.frame_type, (FrameType.OK, {"accepted": 1}))
        return encode_frame(reply_type, payload, frame.trace_id)

    def _serve(self):
        connection, _ = self._listener.accept()
        received = bytearray()
        offset = 0
        with connection:
            while True:
                data = connection.recv(65536)
                if not data:
                    break
                received += data
                while True:
                    decoded = try_decode_frame_traced(received, offset)
                    if decoded is None:
                        break
                    frame, end = decoded
                    raw = bytes(received[offset:end])
                    offset = end
                    if frame.frame_type is FrameType.HELLO:
                        self.preface = raw
                        continue
                    self.requests.append(raw)
                    connection.sendall(self._reply(frame))
        self._listener.close()

    def join(self):
        self._thread.join(10.0)
        assert not self._thread.is_alive()


def reference_answers(values):
    return oracle.count_windows(get_operator("sum"), QUERIES, values)


# -- every request method against a live server ---------------------


def test_every_count_mode_request(kind):
    values = [(i * 37 + 5) % 211 - 105 for i in range(120)]

    async def body(client):
        assert await client.submit("a", values[0]) == 1
        assert await client.submit_batch(
            [("b", v) for v in values[1:40]]
        ) == 39
        assert await client.submit_column("c", values[40:80]) == 40
        assert await client.submit_column("d", iter(values[80:])) == 40
        polled = await client.poll()
        stats = await client.stats()
        # Not packable as int64: rides the tagged object column.
        assert await client.submit_column("e", [2**70, True]) == 2
        answers, final = await client.drain()
        return polled, stats, answers, final

    with ServerThread(AggregationServer(count_service())) as thread:
        polled, stats, answers, final = converse(kind, thread.port, body)
    reference = reference_answers(values + [2**70, True])
    assert polled and polled == reference[: len(polled)]
    assert answers == reference
    assert stats["server"]["accepted_records"] == 120
    assert stats["server"]["accepted_batches"] == 4
    assert stats["service"]["records_submitted"] == 120
    assert final["stats"]["records_submitted"] == 122


def test_every_time_mode_request(kind):
    records = [
        (f"sensor-{i % 5}", i / 10 + 0.011, (i * 37 + 5) % 203 - 101)
        for i in range(90)
    ]
    # Bounded disorder: neighbours swapped, well inside the lateness.
    for i in range(0, len(records) - 1, 7):
        records[i], records[i + 1] = records[i + 1], records[i]

    async def body(client):
        for key, timestamp, value in records[:10]:
            assert await client.submit_event(key, value, timestamp) == 1
        assert await client.submit_event_batch(records[10:]) == 80
        polled = await client.poll()
        answers, final = await client.drain()
        return polled, answers, final

    with ServerThread(AggregationServer(time_service())) as thread:
        polled, answers, final = converse(kind, thread.port, body)
    reference = oracle.time_windows(
        get_operator("sum"), TIME_QUERIES, [r[1:] for r in records]
    )
    assert polled and polled == reference[: len(polled)]
    assert answers == reference
    assert final["stats"]["records_submitted"] == 90
    assert final["stats"]["late_records"] == 0


def test_last_reply_trace_id_after_traced_submit_and_poll(kind):
    async def body(client):
        await client.submit_batch([("k", i) for i in range(40)])
        assert client.last_reply_trace_id is None
        await client.poll()
        assert client.last_reply_trace_id is None
        await client.submit_batch(
            [("k", i) for i in range(40)], trace_id=0xBEEF
        )
        assert client.last_reply_trace_id == 0xBEEF
        # The POLL's reply carries the trace of the submission that
        # closed its newest window, not the POLL's own.
        assert await client.poll(trace_id=0xF00D)
        assert client.last_reply_trace_id == 0xBEEF
        assert await client.poll(trace_id=0xF00D) == []
        assert client.last_reply_trace_id == 0xF00D
        await client.submit_column("k", [1, 2], trace_id=0xC01)
        assert client.last_reply_trace_id == 0xC01

    with ServerThread(AggregationServer(count_service())) as thread:
        converse(kind, thread.port, body)


# -- RETRY and ERROR ------------------------------------------------


def test_retry_is_absorbed_with_backoff(kind):
    shed = (FrameType.RETRY, {"retry_after": 0.05})
    server = ScriptedServer([shed, shed])

    async def body(client):
        started = time.monotonic()
        assert await client.submit_batch([("k", 1), ("k", 2)]) == 1
        return time.monotonic() - started

    elapsed = converse(
        kind, server.port, body, backoff_base=0.01, backoff_max=0.04
    )
    server.join()
    *attempts, close = server.requests
    # The same frame, three times; the server's hint (capped by
    # backoff_max) outweighs the 0.01 s and 0.02 s exponential delays.
    assert len(attempts) == 3 and len(set(attempts)) == 1
    assert elapsed >= 0.08


def test_exhausted_retries_raise_server_overloaded(kind):
    server = AggregationServer(
        SlowGateway(count_service(), delay=0.5),
        max_inflight_records=8,
        admission_policy="shed",
        retry_after=0.001,
    )

    async def body(victim):
        with pytest.raises(ServerOverloadedError):
            await victim.submit_batch([("k", 999)] * 8)

    with ServerThread(server) as thread:
        saturator = AggregationClient("127.0.0.1", thread.port)
        try:
            # Occupy the whole budget for ~0.5 s without reading the
            # reply; the victim's fast retries all land inside that
            # window and must shed out.
            saturator.send_frame(FrameType.SUBMIT_BATCH, [("k", 1)] * 8)
            deadline = time.monotonic() + 10.0
            while server._budget.records < 8:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            converse(
                kind,
                thread.port,
                body,
                max_retries=2,
                backoff_base=0.001,
                backoff_max=0.002,
            )
            assert saturator.read_reply()[1]["accepted"] == 8
            assert saturator.stats()["server"]["shed_requests"] == 3
        finally:
            saturator.close()


def test_error_replies_map_to_exceptions(kind):
    async def refused_by_service(client):
        # A count-mode service has no event-time ingress ...
        with pytest.raises(ServiceError, match="mode='time'"):
            await client.submit_event("k", 1, 2.0)
        with pytest.raises(ServiceError, match="mode='time'"):
            await client.submit_event_batch([("k", 2.0, 1)])
        # ... the connection survives, and a drained server refuses.
        assert await client.submit("k", 1) == 1
        await client.drain()
        with pytest.raises(ServiceError, match="draining"):
            await client.submit_column("k", [1, 2])

    with ServerThread(AggregationServer(count_service())) as thread:
        converse(kind, thread.port, refused_by_service)

    server = ScriptedServer(
        [(FrameType.ERROR, {"error": "ProtocolError", "message": "bad"})]
    )

    async def refused_by_codec(client):
        with pytest.raises(ProtocolError, match="bad"):
            await client.poll()

    converse(kind, server.port, refused_by_codec)
    server.join()


def test_empty_column_returns_zero_with_no_frame_sent(kind):
    server = ScriptedServer()

    async def body(client):
        assert await client.submit_column("k", []) == 0
        assert await client.submit_column("k", iter(())) == 0
        assert await client.stats() == {}

    converse(kind, server.port, body)
    server.join()
    stats, close = server.requests
    assert stats == encode_frame(FrameType.STATS, None)
    assert close == encode_frame(FrameType.CLOSE, None)


# -- golden bytes ---------------------------------------------------


@pytest.mark.parametrize(
    "method, args, kwargs, expected",
    GOLDEN_REQUESTS,
    ids=[
        f"{method}-{index}"
        for index, (method, *_) in enumerate(GOLDEN_REQUESTS)
    ],
)
def test_request_bytes_are_unchanged(kind, method, args, kwargs, expected):
    server = ScriptedServer()

    async def body(client):
        await getattr(client, method)(*args, **kwargs)

    converse(kind, server.port, body)
    server.join()
    # The preface is kept apart (see test_both_clients_open_with_hello).
    assert server.preface == PREFACE
    # The conversation ends with the CLOSE that `converse` sends
    # (`close` itself is idempotent, so it is on the wire only once).
    assert server.requests[0].hex() == expected
    assert server.requests[-1] == encode_frame(FrameType.CLOSE, None)
    assert len(server.requests) == (1 if method == "close" else 2)


def _read_frame(raw: socket.socket) -> bytes:
    decoder = FrameDecoder()
    received = bytearray()
    while True:
        data = raw.recv(65536)
        assert data, "server closed the connection"
        received += data
        decoder.feed(data)
        if any(True for _ in decoder.frames_traced()):
            assert not decoder.pending_bytes
            return bytes(received)


def _replay(service: AggregationService, conversation) -> None:
    """Send each golden request's raw bytes; compare the reply's."""
    with ServerThread(AggregationServer(service)) as thread:
        raw = socket.create_connection(
            ("127.0.0.1", thread.port), timeout=10
        )
        try:
            for request, expected in conversation:
                raw.sendall(bytes.fromhex(request))
                assert _read_frame(raw).hex() == expected, request
        finally:
            raw.close()


def test_reply_bytes_are_unchanged():
    """One scripted conversation: accepted submits of every count-mode
    shape, every refusal the parse half can make, a gateway refusal,
    ANSWERS, a reply-typed request, CLOSE.  The requests are the old
    client's bytes — its ``SUBMIT_BATCH`` rows are eligible for record
    columns but arrive tagged, and must be ingested as before."""
    service = AggregationService(
        [Query(4, 2)],
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=4,
    )
    _replay(service, GOLDEN_REPLIES)


def test_time_mode_reply_bytes_are_unchanged():
    """The old client's tagged ``SUBMIT_EVENT_BATCH`` frames (eligible
    triples, int and float values, a traced one, a non-finite
    timestamp) against a time-mode service: same replies, same
    answers."""
    service = AggregationService(
        [TimeQuery(2.0, 1.0)],
        get_operator("sum"),
        num_shards=2,
        mode="time",
        transport="inline",
        lateness=1.0,
        batch_size=4,
    )
    _replay(service, GOLDEN_TIME_REPLIES)


# -- a key that cannot be routed ------------------------------------

UNROUTABLE = [
    (FrameType.SUBMIT, (["x"], 3), None),
    (
        FrameType.SUBMIT_BATCH,
        [("a", 1), ("b", 2), (["x"], 3), ("c", 4)],
        None,
    ),
    (FrameType.SUBMIT_COLUMN, ({"x": 1}, "q", bytes(16)), None),
    (FrameType.SUBMIT_EVENT, (["x"], 3), 5.0),
    (
        FrameType.SUBMIT_EVENT_BATCH,
        [("a", 5.0, 1), (("b", ["x"]), 5.1, 2), ("c", 5.2, 3)],
        None,
    ),
]


@pytest.mark.parametrize(
    "frame_type, payload, event_time",
    UNROUTABLE,
    ids=[frame_type.name for frame_type, _, _ in UNROUTABLE],
)
def test_unroutable_key_refuses_the_whole_frame(
    kind, frame_type, payload, event_time
):
    timed = frame_type in (
        FrameType.SUBMIT_EVENT,
        FrameType.SUBMIT_EVENT_BATCH,
    )

    async def submit_two(client):
        if timed:
            return await client.submit_event_batch(
                [("a", 1.0, 1), ("b", 1.1, 2)]
            )
        return await client.submit_batch([("a", 1), ("b", 2)])

    async def body(client):
        assert await submit_two(client) == 2
        started = time.monotonic()
        await client.send_frame(frame_type, payload, None, event_time)
        reply_type, reply = await client.read_reply()
        assert time.monotonic() - started < 1.0
        assert reply_type is FrameType.ERROR
        assert reply["error"] == "ServiceError"
        assert "cannot be routed" in reply["message"]
        # Nothing was admitted or routed, and the connection lives on.
        stats = await client.stats()
        assert stats["service"]["records_submitted"] == 2
        assert stats["server"]["accepted_records"] == 2
        assert stats["server"]["inflight_records"] == 0
        assert await submit_two(client) == 2
        _, final = await client.drain()
        assert final["stats"]["records_submitted"] == 4
        assert final["stats"]["dead_letters"] == 0

    service = time_service() if timed else count_service()
    with ServerThread(AggregationServer(service)) as thread:
        # At the parent commit the bad frame got no reply (or, for the
        # event shapes, a wrong OK); time out fast instead of in 30 s.
        converse(kind, thread.port, body, request_timeout=5.0)


def test_any_gateway_exception_gets_an_in_order_error_reply(kind):
    class BrokenGateway(ServiceGateway):
        def submit_many(self, records, trace_id=None):
            """Fail the way no ReproError does."""
            if any(value == "boom" for _, value in records):
                raise RuntimeError("backend exploded")
            return super().submit_many(records, trace_id)

    async def body(client):
        with pytest.raises(ServiceError, match="RuntimeError.*exploded"):
            await client.submit("k", "boom")
        assert await client.submit("k", 1) == 1
        stats = await client.stats()
        assert stats["server"]["inflight_records"] == 0
        assert stats["server"]["accepted_records"] == 1

    server = AggregationServer(BrokenGateway(count_service()))
    with ServerThread(server) as thread:
        converse(kind, thread.port, body, request_timeout=5.0)


# -- per-key DRAIN ----------------------------------------------------


def test_drain_decodes_per_key_answers(kind):
    """DRAIN's per-key rows come back with their queries rebuilt, like
    POLL's (they used to come back as wire rows with tuple specs)."""
    service = AggregationService(
        [Query(4, 2)],
        get_operator("sum"),
        num_shards=2,
        mode="per_key",
        transport="inline",
        batch_size=4,
    )
    records = [(key, i) for i in range(8) for key in "ab"]

    async def body(client):
        assert await client.submit_batch(records) == 16
        polled = await client.poll()
        _, final = await client.drain()
        return polled, final["per_key"]

    with ServerThread(AggregationServer(service)) as thread:
        polled, per_key = converse(kind, thread.port, body)
    assert polled and set(per_key) == {"a", "b"}
    for key in "ab":
        mine = [tuple(answer[1:]) for answer in polled if answer[0] == key]
        assert per_key[key][: len(mine)] == mine
        assert all(type(row[1]) is Query for row in per_key[key])


# -- HELLO and answer columns -----------------------------------------


def test_both_clients_open_with_hello(kind):
    server = ScriptedServer()

    async def body(client):
        assert await client.poll() == []

    converse(kind, server.port, body)
    server.join()
    # HELLO (0x0a), protocol v1, payload None: never answered.
    assert server.preface.hex() == "5344010a0000000100"
    assert PREFACE == encode_frame(FrameType.HELLO, None)
    poll, close = server.requests
    assert poll == encode_frame(FrameType.POLL, None)


def raw_poll(service, submit: bytes, hello: bool) -> bytes:
    """The bytes of the POLL reply after ``submit`` on a raw connection,
    opened with the preface when ``hello``."""
    with ServerThread(AggregationServer(service)) as thread:
        raw = socket.create_connection(("127.0.0.1", thread.port), timeout=10)
        try:
            raw.sendall((PREFACE if hello else b"") + submit)
            assert decode_one(_read_frame(raw)).frame_type is FrameType.OK
            raw.sendall(encode_frame(FrameType.POLL))
            return _read_frame(raw)
        finally:
            raw.close()


def _count_stream(values):
    rows = [("k", value) for value in values]
    reference = reference_answers(values)
    return count_service, FrameType.SUBMIT_BATCH, rows, reference


def _time_stream():
    records = [
        (f"s{i % 3}", i / 10 + 0.011, (i * 7) % 23 - 11) for i in range(90)
    ]
    # Only the windows the watermark has closed: a POLL before CLOSE
    # must release none of the windows that only closing releases.
    watermark = max(stamp for _, stamp, _ in records) - LATENESS
    reference = [
        answer
        for answer in oracle.time_windows(
            get_operator("sum"), TIME_QUERIES, [r[1:] for r in records]
        )
        if answer[0] <= watermark
    ]
    return time_service, FrameType.SUBMIT_EVENT_BATCH, records, reference


STREAMS = {
    "count-int": lambda: _count_stream(
        [(i * 37 + 5) % 211 - 105 for i in range(120)]
    ),
    "count-float": lambda: _count_stream(
        [((i * 37 + 5) % 211 - 105) / 4 for i in range(120)]
    ),
    "time": _time_stream,
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_hello_answers_are_the_tagged_answers(kind, stream):
    """Same stream, same POLL: columns to a HELLO connection, tagged rows
    to one without, and the same answers by ``repr`` — int vs float and
    Query vs TimeQuery kept — as the engine's."""
    service, frame_type, rows, reference = STREAMS[stream]()
    submit = encode_frame(frame_type, rows)
    columnar = decode_one(raw_poll(service(), submit, hello=True)).payload
    tagged = decode_one(raw_poll(service(), submit, hello=False)).payload
    assert type(columnar) is AnswerColumns and type(tagged) is list
    assert columnar == tagged
    want = repr(decode_answers(tagged))
    assert tagged and want == repr(reference[: len(tagged)])
    assert repr(decode_answers(columnar)) == want

    async def body(client):
        await client.send_frame(frame_type, rows)
        assert (await client.read_reply())[0] is FrameType.OK
        return await client.poll()

    with ServerThread(AggregationServer(service())) as thread:
        assert repr(converse(kind, thread.port, body)) == want


def _service(operator, **kwargs):
    return lambda: AggregationService(
        [Query(4, 2)],
        get_operator(operator),
        num_shards=2,
        transport="inline",
        batch_size=4,
        **kwargs,
    )


INELIGIBLE = {
    "per-key": (_service("sum", mode="per_key"), [("a", 1), ("b", 2)] * 4),
    "max-over-strings": (_service("max"), [("k", c) for c in "hello world"]),
    "bigint": (_service("sum"), [("k", 2**62)] * 8),
    "mixed-types": (_service("sum"), [("k", 1)] * 4 + [("k", 0.5)] * 4),
}


@pytest.mark.parametrize("case", sorted(INELIGIBLE))
def test_ineligible_answers_get_the_tagged_bytes(case):
    service, rows = INELIGIBLE[case]
    submit = encode_frame(FrameType.SUBMIT_BATCH, rows)
    columnar = raw_poll(service(), submit, hello=True)
    assert columnar == raw_poll(service(), submit, hello=False)
    assert decode_one(columnar).payload  # a non-empty tagged row list


@pytest.mark.parametrize(
    "opening, answered",
    [
        (encode_frame(FrameType.POLL) + PREFACE, [FrameType.ANSWERS]),
        (PREFACE + PREFACE, []),
        (encode_frame(FrameType.HELLO, {"columns": True}), []),
    ],
    ids=["after-poll", "twice", "with-payload"],
)
def test_a_misplaced_hello_is_a_protocol_error(opening, answered):
    with ServerThread(AggregationServer(count_service())) as thread:
        with RawConnection(thread.port) as raw:
            replies = [raw.request(opening)]
            while replies[-1] is not None:
                replies.append(raw.reply())
    *before, error, eof = replies
    assert [reply.frame_type for reply in before] == answered
    assert error.frame_type is FrameType.ERROR
    assert error.payload["error"] == "ProtocolError"
    assert "first frame" in error.payload["message"]
    assert eof is None  # the server closed the connection
