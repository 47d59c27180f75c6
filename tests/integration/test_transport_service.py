"""Integration tests: the shm data plane answers like one process.

The shared-memory rings swap the representation underneath the sharded
service without touching aggregation logic, so their acceptance test
is blunt: the same stream through the process transport, the inline
transport and a single-process ``StreamEngine`` must produce the same
answers, for both the columnar fast path and every fallback (mixed
numerics, non-numeric values), under the ``fork`` and the ``spawn``
start methods, and a service must leave no shared-memory segment
behind.  Alongside equivalence, these tests pin the observability
surface (frame counters, gateway snapshots, the wire ``SUBMIT_COLUMN``
path) that the benchmarks and docs rely on.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.net.client import AggregationClient
from repro.net.server import AggregationServer, ServerThread
from repro.operators.registry import get_operator
from repro.service import AggregationService
from repro.service.transport import shm_supported
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query

pytestmark = pytest.mark.timeout(120)

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="multiprocessing.shared_memory unavailable"
)

QUERIES = [Query(16, 8), Query(12, 4)]
KEYS = [f"sensor-{i}" for i in range(7)]


def keyed_records(count, value=lambda i: (i * 37 + 5) % 211 - 105):
    return [(KEYS[i % len(KEYS)], value(i)) for i in range(count)]


def reference_answers(records, operator_name="sum"):
    sink = CollectSink()
    StreamEngine(QUERIES, get_operator(operator_name), sinks=[sink]).run(
        value for _, value in records
    )
    return sink.answers


def run_service(records, operator_name="sum", **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("batch_size", 16)
    service = AggregationService(
        QUERIES, get_operator(operator_name), **kwargs
    )
    service.submit_many(records)
    result = service.close()
    return result


@needs_shm
def test_shm_and_inline_answers_identical():
    records = keyed_records(300)
    expected = reference_answers(records)
    shm = run_service(records, transport="process", data_plane="shm")
    inline = run_service(records, transport="inline")
    assert shm.answers == expected
    assert inline.answers == expected
    assert shm.stats.records_processed == len(records)
    assert shm.stats.dead_letters == 0


def _segment_exists(name):
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


@needs_shm
@pytest.mark.parametrize("ending", ["close", "abort"])
def test_no_segment_or_stderr_leak(start_method, ending, capfd):
    """Both start methods answer like one process and clean up after.

    Under ``spawn`` each worker attaches to its rings by name, so this
    is the path that needs the worker to close its endpoint: a mapping
    left open at exit prints a ``BufferError`` traceback.
    """
    records = keyed_records(3000)
    service = AggregationService(
        QUERIES, get_operator("sum"), num_shards=2, batch_size=64,
        transport="process",
    )
    segments = [
        ring.name
        for handle in service._transport.handles
        for ring in (handle.channel.data_ring, handle.channel.result_ring)
    ]
    service.submit_many(records)
    if ending == "close":
        result = service.close()
        assert result.answers == reference_answers(records)
        assert result.stats.transport["data_plane"] == "shm"
        assert [shard.restores for shard in result.stats.shards] == [0, 0]
    else:
        service.abort()
    assert [name for name in segments if _segment_exists(name)] == []
    err = capfd.readouterr().err
    assert "BufferError" not in err
    assert "leaked shared_memory" not in err


@needs_shm
@pytest.mark.timeout(60)
def test_frames_past_an_offset_fit_do_not_livelock():
    """1252-byte frames on a 2048-byte ring once hung ``submit_many``.

    A record could only land in an empty ring if it fit before the end
    of the data region or after a wrap; past about half the ring that
    depends on where the head sits.  Calls of 100 records leave the
    head where a 150-record frame never fits, and the send waited
    forever on an empty ring.
    """
    records = keyed_records(3000)
    service = AggregationService(
        QUERIES, get_operator("sum"), num_shards=2, batch_size=150,
        transport="process", ring_capacity=2048,
    )
    try:
        for start in range(0, len(records), 100):
            service.submit_many(records[start : start + 100])
            service.poll()
        result = service.close()
    except BaseException:
        service.abort()
        raise
    assert result.answers == reference_answers(records)
    assert result.stats.transport["frames_spilled"] > 0


def per_key_reference(records):
    values_by_key = {}
    for key, value in records:
        values_by_key.setdefault(key, []).append(value)
    expected = {}
    for key, values in values_by_key.items():
        sink = CollectSink()
        StreamEngine(QUERIES, get_operator("sum"), sinks=[sink]).run(values)
        expected[key] = sink.answers
    return expected


@needs_shm
@pytest.mark.parametrize("mode", ["global", "per_key"])
def test_frames_and_checkpoints_cross_in_pieces(start_method, mode, capfd):
    """Both rings carry frames several pieces long, under both starts.

    On a 1024-byte ring a piece holds at most 508 bytes: every
    64-record data frame and every output carrying a checkpoint is
    split and joined again.
    """
    records = keyed_records(3000)
    service = AggregationService(
        QUERIES, get_operator("sum"), num_shards=2, batch_size=64,
        transport="process", mode=mode, ring_capacity=1024,
        checkpoint_interval=2,
    )
    handles = service._transport.handles
    segments = [
        ring.name
        for handle in handles
        for ring in (handle.channel.data_ring, handle.channel.result_ring)
    ]
    service.submit_many(records)
    result = service.close()
    if mode == "global":
        assert result.answers == reference_answers(records)
    else:
        assert result.per_key == per_key_reference(records)
    assert result.stats.transport["frames_spilled"] > 0
    assert all(len(handle.snapshot) > 1024 // 2 for handle in handles)
    assert [shard.restores for shard in result.stats.shards] == [0, 0]
    assert [name for name in segments if _segment_exists(name)] == []
    err = capfd.readouterr().err
    assert "BufferError" not in err
    assert "leaked shared_memory" not in err


@needs_shm
def test_numeric_batches_travel_columnar():
    records = keyed_records(300)
    service = AggregationService(
        QUERIES, get_operator("sum"), num_shards=2, batch_size=16,
        transport="process", data_plane="shm",
    )
    service.submit_many(records)
    stats = service.transport_stats()
    result = service.close()
    assert stats["data_plane"] == "shm"
    assert stats["frames_columnar"] > 0
    assert stats["frames_pickled"] == 0
    assert stats["encode_seconds"] >= 0.0
    assert result.answers == reference_answers(records)


@needs_shm
def test_float_batches_travel_columnar_and_match_inline():
    records = keyed_records(240, value=lambda i: (i % 13) * 0.5 - 3.0)
    shm = run_service(records, transport="process", data_plane="shm")
    inline = run_service(records, transport="inline")
    assert shm.answers == inline.answers


@needs_shm
def test_non_numeric_values_fall_back_to_pickle_frames():
    # ``max`` over strings: nothing here can take an i64/f64 column,
    # so every batch must ship as a CRC-protected pickled frame — and
    # the answers must still match the inline transport exactly.
    records = [
        (KEYS[i % len(KEYS)], f"value-{(i * 53) % 97:02d}")
        for i in range(240)
    ]
    service = AggregationService(
        QUERIES, get_operator("max"), num_shards=2, batch_size=16,
        transport="process", data_plane="shm",
    )
    service.submit_many(records)
    stats = service.transport_stats()
    result = service.close()
    assert stats["frames_pickled"] > 0
    assert stats["frames_columnar"] == 0
    inline = run_service(records, "max", transport="inline")
    assert result.answers == inline.answers


@needs_shm
def test_mixed_numeric_batches_fall_back_and_match():
    # Alternating int/float values defeat the capability check batch
    # by batch; answers still match the inline transport bit for bit.
    records = keyed_records(
        240, value=lambda i: i if i % 2 else i * 0.25
    )
    shm = run_service(records, transport="process", data_plane="shm")
    inline = run_service(records, transport="inline")
    assert shm.stats.transport["frames_pickled"] > 0
    assert shm.answers == inline.answers


def test_process_transport_requires_shared_memory(monkeypatch):
    monkeypatch.setattr(
        "repro.service.supervisor.shm_supported", lambda: False
    )
    with pytest.raises(ServiceError, match="transport='inline'"):
        AggregationService(
            QUERIES, get_operator("sum"), num_shards=2,
            transport="process",
        )


@pytest.mark.parametrize("transport", ["process", "inline"])
def test_pickle_plane_is_refused(transport):
    with pytest.raises(ServiceError, match="pickle queue plane was removed"):
        AggregationService(
            QUERIES, get_operator("sum"), transport=transport,
            data_plane="pickle",
        )


def test_unknown_data_plane_rejected():
    with pytest.raises(ServiceError):
        AggregationService(
            QUERIES, get_operator("sum"), transport="process",
            data_plane="carrier-pigeon",
        )


class TestSubmitColumnOverTheWire:
    """``SUBMIT_COLUMN`` frames land identically to row submits."""

    def _serve(self):
        service = AggregationService(
            QUERIES, get_operator("sum"), num_shards=2,
            batch_size=16, transport="inline",
        )
        return ServerThread(AggregationServer(service))

    def test_packed_int_column_matches_row_submits(self):
        values = [(i * 37 + 5) % 211 - 105 for i in range(300)]
        with self._serve() as thread:
            with AggregationClient("127.0.0.1", thread.port) as client:
                accepted = client.submit_column("k", values)
                assert accepted == len(values)
                answers, final = client.drain()
        expected = reference_answers([("k", v) for v in values])
        assert answers == expected
        assert final["stats"]["records_submitted"] == len(values)
        # The gateway snapshot rides along on STATS and must carry
        # the transport counters for dashboards.
        assert "transport" in final["stats"]
        assert "data_plane" in final["stats"]["transport"]

    def test_float_and_object_columns_round_trip(self):
        floats = [(i % 13) * 0.5 - 3.0 for i in range(120)]
        mixed = [1, 2.5, 3]  # falls back to the tagged-object payload
        with self._serve() as thread:
            with AggregationClient("127.0.0.1", thread.port) as client:
                assert client.submit_column("f", floats) == len(floats)
                assert client.submit_column("m", mixed) == len(mixed)
                assert client.submit_column("e", []) == 0
                answers, _ = client.drain()
        reference = reference_answers(
            [("f", v) for v in floats] + [("m", v) for v in mixed]
        )
        assert answers == reference
