"""Integration: trace IDs survive the full submit → reply loop.

A trace minted at SUBMIT time must ride the wire into the server,
through the shard folds and the global merge, and come back on the
ANSWERS reply that releases the answers it caused — with a per-stage
breakdown (decode, admission, submit, shard_fold, merge, reply)
recorded in the server's tracer.  And because the trace-id field is a
protocol v2 addition, a peer that never traces must keep speaking
byte-identical protocol v1 and still be understood.

Everything runs on ephemeral localhost ports with the inline service
transport for determinism.
"""

from __future__ import annotations

import socket

import pytest

from repro import (
    AggregationService,
    AggregationClient,
    AggregationServer,
    Query,
    ServerThread,
    get_operator,
    mint_trace_id,
)
from repro.net.protocol import (
    LEGACY_PROTOCOL_VERSION,
    FrameDecoder,
    FrameType,
    decode_answers,
    encode_frame,
)

from tests import oracle

QUERIES = [Query(16, 8), Query(12, 4)]
KEYS = [f"sensor-{i}" for i in range(5)]


def keyed_records(count: int, start: int = 0):
    return [
        (KEYS[i % len(KEYS)], (i * 37 + 5) % 211 - 105)
        for i in range(start, start + count)
    ]


def reference_answers(records):
    values = [value for _, value in records]
    return oracle.count_windows(get_operator("sum"), QUERIES, values)


def make_server(**server_kwargs) -> AggregationServer:
    """Inline two-shard global-mode service behind a server.

    ``batch_size=1`` ships every record immediately, so the answers a
    traced submission causes are released by the very next POLL.
    """
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=1,
    )
    server_kwargs.setdefault("slow_threshold", 0.0)
    return AggregationServer(service, **server_kwargs)


@pytest.mark.timeout(120)
class TestTraceSurvivesTheLoop:
    def test_submit_echoes_and_poll_returns_the_answer_trace(self):
        server = make_server()
        with ServerThread(server) as thread:
            with AggregationClient("127.0.0.1", thread.port) as client:
                # Untraced warm-up: replies carry no trace at all.
                client.submit_batch(keyed_records(60))
                assert client.last_reply_trace_id is None
                warmup = client.poll()
                assert warmup
                assert client.last_reply_trace_id is None

                # Traced submission: the OK reply echoes the trace ...
                trace = mint_trace_id()
                accepted = client.submit_batch(
                    keyed_records(40, start=60), trace_id=trace
                )
                assert accepted == 40
                assert client.last_reply_trace_id == trace

                # ... and the POLL that releases its answers carries
                # it back as the reply trace.
                released = client.poll()
                assert released
                assert client.last_reply_trace_id == trace

                answers, _ = client.drain()
        # DRAIN replays the complete answer history; the incremental
        # polls must be a prefix of it, and it must match a
        # single-process run of the same records.
        assert answers == reference_answers(keyed_records(100))
        assert warmup + released == answers[: len(warmup) + len(released)]

    def test_finished_trace_records_every_pipeline_stage(self):
        server = make_server(slow_threshold=0.0)
        with ServerThread(server) as thread:
            with AggregationClient("127.0.0.1", thread.port) as client:
                trace = mint_trace_id()
                client.submit_batch(
                    keyed_records(60), trace_id=trace
                )
                client.poll()
                assert client.last_reply_trace_id == trace

        slow = [
            op
            for op in server.telemetry.tracer.slow_ops()
            if op["trace_id"] == trace
        ]
        assert len(slow) == 1
        stages = {stage for stage, _ in slow[0]["stages"]}
        assert stages >= {
            "decode",
            "admission",
            "submit",
            "shard_fold",
            "merge",
            "reply",
        }
        assert all(
            seconds >= 0.0 for _, seconds in slow[0]["stages"]
        )
        assert slow[0]["total_seconds"] >= 0.0

    def test_stats_exposes_the_telemetry_snapshot(self):
        server = make_server()
        with ServerThread(server) as thread:
            with AggregationClient("127.0.0.1", thread.port) as client:
                trace = mint_trace_id()
                client.submit_batch(
                    keyed_records(60), trace_id=trace
                )
                client.poll()
                stats = client.stats()

        telemetry = stats["telemetry"]
        assert telemetry["traces"]["finished"] >= 1
        metrics = telemetry["metrics"]
        for name in (
            "repro_net_decode_seconds",
            "repro_net_submit_seconds",
            "repro_net_reply_seconds",
            "repro_shard_fold_seconds",
            "repro_merge_seconds",
        ):
            series = metrics[name]["series"]
            assert sum(row["count"] for row in series) > 0, name

    def test_poll_with_no_traced_answers_echoes_its_own_trace(self):
        server = make_server()
        with ServerThread(server) as thread:
            with AggregationClient("127.0.0.1", thread.port) as client:
                trace = mint_trace_id()
                answers = client.poll(trace_id=trace)
                assert answers == []
                assert client.last_reply_trace_id == trace


@pytest.mark.timeout(120)
class TestLegacyProtocolStillWorks:
    """A v1-only peer interoperates, byte for byte."""

    def _exchange(self, sock, frame: bytes, decoder: FrameDecoder):
        """Send one raw frame; return (reply_bytes, decoded_frame)."""
        sock.sendall(frame)
        raw = bytearray()
        while True:
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection unexpectedly"
            raw.extend(chunk)
            decoder.feed(chunk)
            frames = list(decoder.frames_traced())
            if frames:
                assert len(frames) == 1
                return bytes(raw), frames[0]

    def test_untraced_conversation_is_pure_v1_both_ways(self):
        server = make_server()
        with ServerThread(server) as thread:
            with socket.create_connection(
                ("127.0.0.1", thread.port), timeout=30
            ) as sock:
                decoder = FrameDecoder()

                submit = encode_frame(
                    FrameType.SUBMIT_BATCH, keyed_records(60)
                )
                # An untraced frame *is* the legacy wire format.
                assert submit[2] == LEGACY_PROTOCOL_VERSION
                raw, reply = self._exchange(sock, submit, decoder)
                assert raw[2] == LEGACY_PROTOCOL_VERSION
                assert reply.frame_type is FrameType.OK
                assert reply.trace_id is None
                assert reply.payload["accepted"] == 60

                raw, reply = self._exchange(
                    sock,
                    encode_frame(FrameType.POLL, None),
                    decoder,
                )
                assert raw[2] == LEGACY_PROTOCOL_VERSION
                assert reply.frame_type is FrameType.ANSWERS
                assert reply.trace_id is None
                assert decode_answers(reply.payload)

                sock.sendall(encode_frame(FrameType.CLOSE, None))

    def test_v1_and_v2_frames_interleave_on_one_connection(self):
        server = make_server()
        with ServerThread(server) as thread:
            with socket.create_connection(
                ("127.0.0.1", thread.port), timeout=30
            ) as sock:
                decoder = FrameDecoder()
                trace = mint_trace_id()

                _, reply = self._exchange(
                    sock,
                    encode_frame(
                        FrameType.SUBMIT_BATCH,
                        keyed_records(30),
                        trace_id=trace,
                    ),
                    decoder,
                )
                assert reply.trace_id == trace

                _, reply = self._exchange(
                    sock,
                    encode_frame(
                        FrameType.SUBMIT_BATCH,
                        keyed_records(30, start=30),
                    ),
                    decoder,
                )
                assert reply.trace_id is None
                assert reply.payload["accepted"] == 30

                _, reply = self._exchange(
                    sock,
                    encode_frame(FrameType.POLL, None),
                    decoder,
                )
                assert reply.frame_type is FrameType.ANSWERS
                # The newest released answer came from the untraced
                # second batch, so the reply may legitimately carry
                # either no trace (last answer untraced) — the field
                # reflects answer attribution, not the POLL request.
                assert reply.trace_id in (None, trace)

                sock.sendall(encode_frame(FrameType.CLOSE, None))

    def test_legacy_client_never_sees_v2_even_when_others_trace(self):
        """Tracing traffic on one connection must not leak v2 frames
        into the replies of a concurrent v1-only connection."""
        server = make_server()
        with ServerThread(server) as thread:
            with AggregationClient(
                "127.0.0.1", thread.port
            ) as tracing_client, socket.create_connection(
                ("127.0.0.1", thread.port), timeout=30
            ) as legacy:
                tracing_client.submit_batch(
                    keyed_records(40), trace_id=mint_trace_id()
                )
                decoder = FrameDecoder()
                raw, reply = self._exchange(
                    legacy,
                    encode_frame(FrameType.STATS, None),
                    decoder,
                )
                assert raw[2] == LEGACY_PROTOCOL_VERSION
                assert reply.frame_type is FrameType.STATS_REPLY
                assert reply.trace_id is None
                legacy.sendall(encode_frame(FrameType.CLOSE, None))
