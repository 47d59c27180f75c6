"""Integration: the network serving layer end to end on localhost.

Acceptance criteria of the serving-layer issue:

* over-the-wire answers are identical to the oracle's
  (``tests/oracle.py``) over the same records, including under
  pipelined SUBMIT_BATCH;
* a saturating client observes shed/RETRY — not a crash and not an
  unbounded queue — when the admission budget is exceeded.

Every server runs on an ephemeral localhost port (``port=0``) via
:class:`~repro.net.server.ServerThread`, with the inline service
transport for determinism.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro import AggregationService, Query, TimeQuery, get_operator
from repro.errors import (
    ClientTimeoutError,
    ServerOverloadedError,
    ServiceError,
)
from repro.net.client import AggregationClient, AsyncAggregationClient
from repro.net.protocol import (
    HEADER,
    FrameDecoder,
    FrameType,
    decode_answers,
    encode_frame,
)
from repro.net.server import AggregationServer, ServerThread
from repro.service.gateway import ServiceGateway

from tests import oracle
from tests.unit.test_net_protocol import framed, sealed, tagged_frame

QUERIES = [Query(16, 8), Query(12, 4)]
KEYS = [f"sensor-{i}" for i in range(7)]


def keyed_records(count: int):
    """Deterministic keyed integer records (ints merge exactly)."""
    return [
        (KEYS[i % len(KEYS)], (i * 37 + 5) % 211 - 105)
        for i in range(count)
    ]


def reference_answers(records):
    """The oracle's answers for the same values."""
    values = [value for _, value in records]
    return oracle.count_windows(get_operator("sum"), QUERIES, values)


def make_service(**kwargs) -> AggregationService:
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("transport", "inline")
    kwargs.setdefault("batch_size", 16)
    return AggregationService(QUERIES, get_operator("sum"), **kwargs)


class SlowGateway(ServiceGateway):
    """Gateway with an artificial per-batch delay (saturation tests)."""

    def __init__(self, service, delay: float):
        super().__init__(service)
        self._delay = delay

    def submit_many(self, records, trace_id=None):
        """Sleep, then delegate — simulates a busy backend."""
        time.sleep(self._delay)
        return super().submit_many(records, trace_id)


class LockedSlowGateway(SlowGateway):
    """Sleeps holding the gateway's lock, as a busy service call does."""

    def submit_many(self, records, trace_id=None):
        """Take the lock, then sleep and delegate inside it."""
        with self._lock:
            return super().submit_many(records, trace_id)


class CountingExecutor:
    """Wraps the server's executor and counts the jobs handed to it."""

    def __init__(self, inner):
        self.inner = inner
        self.jobs = 0

    def submit(self, *args, **kwargs):
        self.jobs += 1
        return self.inner.submit(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        self.inner.shutdown(*args, **kwargs)


class CountingSocket:
    """Wraps a client's socket and counts its writes."""

    def __init__(self, inner):
        self.inner = inner
        self.writes = 0

    def sendall(self, data):
        self.writes += 1
        return self.inner.sendall(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.timeout(120)
class TestOverTheWireEquivalence:
    """Socket answers == the oracle's answers."""

    def test_pipelined_submit_batch_matches_stream_engine(self):
        records = keyed_records(400)
        reference = reference_answers(records)
        chunks = [
            records[start : start + 25]
            for start in range(0, len(records), 25)
        ]
        with ServerThread(
            AggregationServer(make_service())
        ) as thread:
            with AggregationClient(
                "127.0.0.1", thread.port
            ) as client:
                # Under TCP_NODELAY a write per frame leaves as a
                # segment per frame: the 16-frame burst is one write.
                counting = client._sock = CountingSocket(client._sock)
                accepted = client.submit_batches(chunks)
                assert counting.writes == 1
                assert accepted == [len(chunk) for chunk in chunks]
                polled = client.poll()
                answers, final = client.drain()
        assert polled == reference[: len(polled)]
        assert answers == reference
        assert final["stats"]["records_submitted"] == len(records)
        assert final["stats"]["dead_letters"] == 0

    def test_single_submits_match_stream_engine(self):
        records = keyed_records(60)
        reference = reference_answers(records)
        with ServerThread(
            AggregationServer(make_service(batch_size=4))
        ) as thread:
            with AggregationClient(
                "127.0.0.1", thread.port
            ) as client:
                for key, value in records:
                    assert client.submit(key, value) == 1
                answers, _ = client.drain()
        assert answers == reference

    def test_async_client_matches_stream_engine(self):
        records = keyed_records(200)
        reference = reference_answers(records)

        async def drive(port):
            client = await AsyncAggregationClient.connect(
                "127.0.0.1", port
            )
            async with client:
                for start in range(0, len(records), 40):
                    accepted = await client.submit_batch(
                        records[start : start + 40]
                    )
                    assert accepted == 40
                stats = await client.stats()
                answers, _ = await client.drain()
            return answers, stats

        with ServerThread(
            AggregationServer(make_service())
        ) as thread:
            answers, stats = asyncio.run(drive(thread.port))
        assert answers == reference
        assert stats["server"]["accepted_records"] == len(records)

    def test_both_clients_disable_nagle(self):
        # A POLL written right after a SUBMIT_BATCH must not wait for
        # the batch's reply to ACK it.
        async def async_nodelay(port):
            client = await AsyncAggregationClient.connect(
                "127.0.0.1", port
            )
            async with client:
                raw = client._writer.get_extra_info("socket")
                return raw.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        with ServerThread(
            AggregationServer(make_service())
        ) as thread:
            with AggregationClient("127.0.0.1", thread.port) as client:
                sync_nodelay = client._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            assert sync_nodelay
            assert asyncio.run(async_nodelay(thread.port))

    def test_two_connections_share_one_service(self):
        records = keyed_records(120)
        reference = reference_answers(records)
        half = len(records) // 2
        with ServerThread(
            AggregationServer(make_service())
        ) as thread:
            first = AggregationClient("127.0.0.1", thread.port)
            second = AggregationClient("127.0.0.1", thread.port)
            try:
                # Interleave strictly: submission order defines the
                # global stream, whichever socket carries it.
                first.submit_batch(records[:half])
                second.submit_batch(records[half:])
                stats = second.stats()
                assert (
                    stats["server"]["accepted_records"]
                    == len(records)
                )
                assert stats["server"]["connections_total"] == 2
                answers, _ = second.drain()
            finally:
                first.close()
                second.close()
        assert answers == reference


@pytest.mark.timeout(120)
class TestAdmissionControl:
    """Shed/RETRY under a tiny budget; block policy stays lossless."""

    def test_saturating_client_observes_retry_not_a_crash(self):
        server = AggregationServer(
            SlowGateway(make_service(), delay=0.01),
            max_inflight_records=32,
            admission_policy="shed",
        )
        batches = [
            [(KEYS[i % len(KEYS)], i)] * 8 for i in range(40)
        ]
        with ServerThread(server) as thread:
            with AggregationClient(
                "127.0.0.1", thread.port, max_retries=0
            ) as client:
                accepted = client.submit_batches(
                    batches, retry_shed=False
                )
                stats = client.stats()
        shed_batches = accepted.count(0)
        accepted_records = sum(accepted)
        assert shed_batches > 0, "a tiny budget must shed"
        assert accepted_records > 0, "some batches must land"
        counters = stats["server"]
        assert counters["shed_requests"] == shed_batches
        assert counters["accepted_records"] == accepted_records
        assert (
            counters["shed_records"] + counters["accepted_records"]
            == sum(len(batch) for batch in batches)
        )
        # The queue is bounded: nothing may linger beyond the budget.
        assert counters["inflight_records"] <= 32

    def test_retries_eventually_land_or_raise_overloaded(self):
        server = AggregationServer(
            SlowGateway(make_service(), delay=0.005),
            max_inflight_records=8,
            admission_policy="shed",
            retry_after=0.01,
        )
        with ServerThread(server) as thread:
            with AggregationClient(
                "127.0.0.1",
                thread.port,
                max_retries=20,
                backoff_base=0.01,
            ) as client:
                batches = [[("k", i)] * 8 for i in range(20)]
                accepted = client.submit_batches(batches)
                # With retries enabled every batch lands eventually.
                assert accepted == [8] * 20

    def test_exhausted_retries_raise_server_overloaded(self):
        self._victim_is_shed(SlowGateway(make_service(), delay=0.5))

    def test_admission_never_waits_on_the_service_lock(self):
        # A service call holding the gateway's lock must not stall the
        # event loop: the victim is shed at once, not admitted after
        # the call and its own slow submit.
        self._victim_is_shed(LockedSlowGateway(make_service(), delay=0.5))

    @staticmethod
    def _victim_is_shed(gateway):
        server = AggregationServer(
            gateway,
            max_inflight_records=8,
            admission_policy="shed",
            retry_after=0.001,
        )
        with ServerThread(server) as thread:
            saturator = AggregationClient("127.0.0.1", thread.port)
            victim = AggregationClient(
                "127.0.0.1",
                thread.port,
                max_retries=2,
                backoff_base=0.001,
                backoff_max=0.002,
            )
            try:
                # Occupy the whole budget for ~0.5 s without reading
                # the reply; the victim's fast retries all land inside
                # that window and must shed out.
                saturator.send_frame(
                    FrameType.SUBMIT_BATCH, [("k", 1)] * 8
                )
                # Wait for the server to actually admit the burst (a
                # fixed sleep races the event loop on loaded runners):
                # the in-flight budget is observable server state.
                deadline = time.monotonic() + 10.0
                while server._budget.records < 8:
                    assert time.monotonic() < deadline, (
                        "server never admitted the saturating burst"
                    )
                    time.sleep(0.001)
                with pytest.raises(ServerOverloadedError):
                    victim.submit_batch([("k", 999)] * 8)
                assert saturator.read_reply()[1]["accepted"] == 8
            finally:
                victim.close()
                saturator.close()

    def test_block_policy_is_lossless(self):
        records = keyed_records(160)
        reference = reference_answers(records)
        server = AggregationServer(
            SlowGateway(make_service(), delay=0.002),
            max_inflight_records=16,
            admission_policy="block",
        )
        chunks = [
            records[start : start + 8]
            for start in range(0, len(records), 8)
        ]
        with ServerThread(server) as thread:
            with AggregationClient(
                "127.0.0.1", thread.port
            ) as client:
                accepted = client.submit_batches(chunks)
                assert accepted == [8] * len(chunks)
                stats = client.stats()
                assert stats["server"]["shed_requests"] == 0
                answers, _ = client.drain()
        assert answers == reference


@pytest.mark.timeout(120)
class TestProtocolAndLifecycle:
    """Malformed input, draining, stats, and client timeouts."""

    def test_malformed_frame_gets_error_reply_and_disconnect(self):
        with ServerThread(
            AggregationServer(make_service())
        ) as thread:
            raw = socket.create_connection(
                ("127.0.0.1", thread.port), timeout=10
            )
            try:
                raw.sendall(b"XXXXXXXXXXXX")
                # The server answers ERROR, then closes (EOF).
                received = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    received += chunk
                assert received, "expected an ERROR reply before EOF"
            finally:
                raw.close()

    def test_bad_payload_shape_is_an_error_not_a_crash(self):
        with ServerThread(
            AggregationServer(make_service())
        ) as thread:
            with AggregationClient(
                "127.0.0.1", thread.port
            ) as client:
                client.send_frame(FrameType.SUBMIT, "not-a-pair")
                reply_type, reply = client.read_reply()
                assert reply_type is FrameType.ERROR
                assert reply["error"] == "ServiceError"
                assert "pair" in reply["message"]
                # The connection survives a semantic error.
                assert client.submit("k", 1) == 1

    def test_submit_after_drain_is_rejected(self):
        with ServerThread(
            AggregationServer(make_service())
        ) as thread:
            with AggregationClient(
                "127.0.0.1", thread.port
            ) as client:
                client.submit_batch(keyed_records(20))
                client.drain()
                with pytest.raises(ServiceError, match="draining"):
                    client.submit("k", 1)
                # Drain is idempotent over the cached result.
                answers, _ = client.drain()
                assert answers

    def test_stats_expose_latency_and_throughput(self):
        with ServerThread(
            AggregationServer(make_service())
        ) as thread:
            with AggregationClient(
                "127.0.0.1", thread.port
            ) as client:
                client.submit_batches(
                    [keyed_records(30)[i : i + 10] for i in (0, 10, 20)]
                )
                stats = client.stats()
        server_stats = stats["server"]
        assert server_stats["accepted_records"] == 30
        assert server_stats["accepted_batches"] == 3
        assert server_stats["throughput_rps"] > 0
        latency = server_stats["submit_latency"]
        assert latency is not None and latency["count"] == 3
        assert stats["service"]["records_submitted"] == 30
        assert stats["service"]["dead_letters"] == 0

    def test_request_timeout_raises_client_timeout_error(self):
        """A server that never replies trips the request timeout."""
        mute = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        mute.bind(("127.0.0.1", 0))
        mute.listen(1)
        port = mute.getsockname()[1]
        accepted = []

        def accept_and_hold():
            conn, _ = mute.accept()
            accepted.append(conn)  # hold open, never reply

        holder = threading.Thread(target=accept_and_hold, daemon=True)
        holder.start()
        try:
            client = AggregationClient(
                "127.0.0.1", port, request_timeout=0.2
            )
            with pytest.raises(ClientTimeoutError):
                client.poll()
        finally:
            for conn in accepted:
                conn.close()
            mute.close()

    def test_async_client_timeout(self):
        async def scenario():
            server_sock = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            server_sock.bind(("127.0.0.1", 0))
            server_sock.listen(1)
            port = server_sock.getsockname()[1]
            try:
                client = await AsyncAggregationClient.connect(
                    "127.0.0.1", port, request_timeout=0.2
                )
                with pytest.raises(ClientTimeoutError):
                    await client.poll()
            finally:
                server_sock.close()

        asyncio.run(scenario())


class RawConnection:
    """One socket, raw request bytes in, decoded reply frames out."""

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self._decoder = FrameDecoder()

    def request(self, frame: bytes):
        """Send request frame(s); return the first reply (``None`` on EOF)."""
        self._sock.sendall(frame)
        return self.reply()

    def reply(self):
        """The next reply frame (``None`` on EOF)."""
        while True:
            for reply in self._decoder.frames_traced():
                return reply
            data = self._sock.recv(65536)
            if not data:
                return None
            self._decoder.feed(data)

    def at_eof(self) -> bool:
        return self._sock.recv(65536) == b""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._sock.close()


def time_service(**kwargs) -> AggregationService:
    return AggregationService(
        [TimeQuery(2.0, 1.0), TimeQuery(5.0, 2.0)],
        get_operator("sum"),
        num_shards=2,
        mode="time",
        transport="inline",
        lateness=1.0,
        batch_size=16,
        **kwargs,
    )


@pytest.mark.timeout(120)
class TestRecordColumnsOnTheServer:
    """The columnar body of SUBMIT_BATCH / SUBMIT_EVENT_BATCH against a
    live server: same answers as the tagged body, and every refusal
    made before anything is admitted or routed."""

    @staticmethod
    def _final_answers(service, frames):
        with ServerThread(AggregationServer(service)) as thread:
            with RawConnection(thread.port) as raw:
                for frame in frames:
                    assert raw.request(frame).frame_type is FrameType.OK
                polled = raw.request(encode_frame(FrameType.POLL)).payload
                final = raw.request(encode_frame(FrameType.DRAIN)).payload
        return polled, final["answers"], final["stats"]["records_submitted"]

    def test_columnar_and_tagged_bodies_give_identical_answers(self):
        records = keyed_records(400)
        chunks = [records[i : i + 25] for i in range(0, 400, 25)]
        columnar = [encode_frame(FrameType.SUBMIT_BATCH, c) for c in chunks]
        tagged = [tagged_frame(FrameType.SUBMIT_BATCH, c) for c in chunks]
        assert all(frame[HEADER.size] == 0x0B for frame in columnar)
        assert all(frame[HEADER.size] == 0x08 for frame in tagged)
        through_columns = self._final_answers(make_service(), columnar)
        assert through_columns == self._final_answers(make_service(), tagged)
        assert through_columns[2] == 400
        assert [
            (position, (query.range_size, query.slide, query.name), value)
            for position, query, value in reference_answers(records)
        ] == through_columns[1]

    def test_columnar_and_tagged_event_batches_give_identical_answers(self):
        events = [
            (KEYS[i % 7], i * 0.25 + (0.6 if i % 5 == 0 else 0.0), float(i))
            for i in range(200)
        ]
        chunks = [events[i : i + 20] for i in range(0, 200, 20)]
        frame_type = FrameType.SUBMIT_EVENT_BATCH
        columnar = [encode_frame(frame_type, c, trace_id=5) for c in chunks]
        tagged = [tagged_frame(frame_type, c, trace_id=5) for c in chunks]
        assert all(frame[HEADER.size + 8] == 0x0B for frame in columnar)
        through_columns = self._final_answers(time_service(), columnar)
        assert through_columns == self._final_answers(time_service(), tagged)
        assert through_columns[1] and through_columns[2] == 200

    def test_structural_damage_is_refused_before_anything_is_ingested(self):
        good = encode_frame(
            FrameType.SUBMIT_BATCH, [("a", 1), ("b", 2), ("a", 3)]
        )
        payload = good[HEADER.size :]
        damaged = []
        for index in range(len(payload)):
            flipped = bytearray(payload)
            flipped[index] ^= 0x01
            damaged.append(framed(FrameType.SUBMIT_BATCH, bytes(flipped)))
        damaged.extend(
            framed(FrameType.SUBMIT_BATCH, payload[:size])
            for size in range(1, len(payload))
        )
        server = AggregationServer(make_service())
        with ServerThread(server) as thread:
            for frame in damaged:
                with RawConnection(thread.port) as raw:
                    reply = raw.request(frame)
                    assert reply.frame_type is FrameType.ERROR, frame.hex()
                    assert reply.payload["error"] == "ProtocolError"
                    # A framing error: the stream offset is unknowable.
                    assert raw.at_eof()
            with AggregationClient("127.0.0.1", thread.port) as client:
                stats = client.stats()
                assert stats["service"]["records_submitted"] == 0
                assert stats["server"]["accepted_records"] == 0
                assert stats["server"]["protocol_errors"] == len(damaged)
                # The server itself is unharmed.
                assert client.submit_batch([("a", 1), ("b", 2)]) == 2

    def test_semantic_refusals_keep_the_connection_and_touch_nothing(self):
        table = b"\x02\x00\x00\x00\x03\x01\x00\x00\x00a\x03\x01\x00\x00\x00b"
        values = (10).to_bytes(8, "little") + (20).to_bytes(8, "little")
        bad_code = framed(
            FrameType.SUBMIT_BATCH,
            sealed(2, table, 0, values + b"\0\0\0\0\x02\0\0\0"),
        )
        with ServerThread(AggregationServer(make_service())) as thread:
            with RawConnection(thread.port) as raw:
                reply = raw.request(bad_code)
                assert reply.frame_type is FrameType.ERROR
                assert "key code outside" in reply.payload["message"]
                ok = raw.request(
                    encode_frame(FrameType.SUBMIT_BATCH, [("a", 1), ("b", 2)])
                )
                assert ok.payload == {"accepted": 2}
                stats = raw.request(encode_frame(FrameType.STATS)).payload
                assert stats["service"]["records_submitted"] == 2
        codes = b"\0\0\0\0\x01\0\0\0"
        not_finite = framed(
            FrameType.SUBMIT_EVENT_BATCH,
            sealed(
                2,
                table,
                0x08,
                values + codes + struct.pack("<dd", 1.0, float("nan")),
            ),
        )
        with ServerThread(AggregationServer(time_service())) as thread:
            with RawConnection(thread.port) as raw:
                reply = raw.request(not_finite)
                assert reply.frame_type is FrameType.ERROR
                assert "must be finite" in reply.payload["message"]
                ok = raw.request(
                    encode_frame(
                        FrameType.SUBMIT_EVENT_BATCH,
                        [("a", 1.0, 1), ("b", 1.5, 2)],
                    )
                )
                assert ok.payload == {"accepted": 2}
                stats = raw.request(encode_frame(FrameType.STATS)).payload
                assert stats["service"]["records_submitted"] == 2


@pytest.mark.timeout(120)
class TestBursts:
    """Requests pipelined before any reply is read are answered as one
    burst: one executor job, replies in request order, and a failing
    call's ERROR leaves its neighbours accepted."""

    def test_pipelined_burst_is_one_job_with_in_order_replies(self):
        class FailingGateway(ServiceGateway):
            def submit_many(self, records, trace_id=None):
                """Fail on a batch keyed "boom" the way no ReproError does."""
                if any(key == "boom" for key, _ in records):
                    raise RuntimeError("backend exploded")
                return super().submit_many(records, trace_id)

        records = keyed_records(100)
        chunks = [records[i : i + 25] for i in range(0, 100, 25)]
        server = AggregationServer(FailingGateway(make_service()))
        executor = server._executor = CountingExecutor(server._executor)
        burst = [
            encode_frame(FrameType.SUBMIT_BATCH, chunks[0]),
            encode_frame(FrameType.SUBMIT_BATCH, chunks[1]),
            encode_frame(FrameType.SUBMIT_BATCH, chunks[2]),
            encode_frame(FrameType.SUBMIT, "not-a-pair"),
            encode_frame(FrameType.SUBMIT_BATCH, [("boom", 1)]),
            encode_frame(FrameType.POLL),
            encode_frame(FrameType.STATS),
            encode_frame(FrameType.SUBMIT_BATCH, chunks[3]),
        ]
        service_calls = 7  # every frame but the malformed SUBMIT
        with ServerThread(server) as thread:
            with RawConnection(thread.port) as raw:
                # The whole burst is on the wire before any reply is read.
                replies = [raw.request(b"".join(burst))]
                replies += [raw.reply() for _ in burst[1:]]
                jobs = executor.jobs
                final = raw.request(encode_frame(FrameType.DRAIN)).payload
        assert [reply.frame_type for reply in replies] == [
            FrameType.OK,
            FrameType.OK,
            FrameType.OK,
            FrameType.ERROR,
            FrameType.ERROR,
            FrameType.ANSWERS,
            FrameType.STATS_REPLY,
            FrameType.OK,
        ]
        assert [replies[i].payload for i in (0, 1, 2, 7)] == [
            {"accepted": 25}
        ] * 4
        assert replies[3].payload["error"] == "ServiceError"
        assert replies[4].payload == {
            "error": "RuntimeError",
            "message": "backend exploded",
        }
        # STATS counts exactly the submits answered before it.
        assert replies[6].payload["server"]["accepted_records"] == 75
        assert replies[6].payload["server"]["accepted_batches"] == 3
        reference = reference_answers(records)
        polled = decode_answers(replies[5].payload)
        assert polled and polled == reference[: len(polled)]
        assert decode_answers(final["answers"]) == reference
        assert final["stats"]["records_submitted"] == 100
        assert jobs < service_calls
