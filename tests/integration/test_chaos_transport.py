"""Chaos suite for the shared-memory data plane.

The shm transport's failure semantics are the point of the design:
every frame is CRC-sealed, rings are torn down wholesale on worker
death, and checkpoint + retained-batch replay reconstructs state —
so a torn write, a duplicated (stale) frame, or a SIGKILL while the
ring is full must all end with answers byte-identical to a fault-free
run.  These tests drive each of those faults against real worker
processes; the torn-frame and kill cases also run with ``spawn``-started
workers, which attach to their (fresh, after a respawn) rings by
segment name.

Marked ``chaos``: spawns and kills real processes, so CI runs it in
the dedicated ``pytest -m chaos`` job.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.operators.registry import get_operator
from repro.service import AggregationService, FaultInjector, poison
from repro.service.partition import shard_of
from repro.service.transport import ShardChannel, shm_supported
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.timeout(120),
    pytest.mark.skipif(
        not shm_supported(),
        reason="multiprocessing.shared_memory unavailable",
    ),
]

QUERIES = (Query(12, 4), Query(8, 2))
NUM_SHARDS = 2


def _records(count):
    return [
        (f"sensor-{i % 11}", (i * 37 + 5) % 203 - 101)
        for i in range(count)
    ]


def _expected_global(records):
    sink = CollectSink()
    StreamEngine(QUERIES, get_operator("sum"), sinks=[sink]).run(
        value for _, value in records
    )
    return sink.answers


def _expected_per_key(records):
    values_by_key = {}
    for key, value in records:
        values_by_key.setdefault(key, []).append(value)
    expected = {}
    for key, values in values_by_key.items():
        sink = CollectSink()
        StreamEngine(QUERIES, get_operator("sum"), sinks=[sink]).run(
            values
        )
        if sink.answers:
            expected[key] = sink.answers
    return expected


def _service(injector=None, **kwargs):
    kwargs.setdefault("num_shards", NUM_SHARDS)
    kwargs.setdefault("batch_size", 10)
    kwargs.setdefault("checkpoint_interval", 2)
    kwargs.setdefault("restart_backoff", 0.0)
    return AggregationService(
        QUERIES,
        get_operator("sum"),
        transport="process",
        data_plane="shm",
        injector=injector,
        **kwargs,
    )


def _run(service, records):
    try:
        service.submit_many(records)
        return service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise


@pytest.fixture
def channels(monkeypatch):
    """Every ring pair the supervisor builds, in creation order."""
    built = []

    class Recorded(ShardChannel):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr("repro.service.supervisor.ShardChannel", Recorded)
    return built


def _assert_respawned_on_fresh_rings(channels, shard_id):
    names = [
        ring.name
        for channel in channels
        if channel.shard_id == shard_id
        for ring in (channel.data_ring, channel.result_ring)
    ]
    assert len(names) >= 4  # the first pair and at least one respawn's
    assert len(set(names)) == len(names)


def test_torn_frame_recovers_with_exact_answers():
    """A CRC-corrupted data frame kills and respawns the worker."""
    _check_torn_frame_recovery()


@pytest.mark.parametrize("start_method", ["spawn"], indirect=True)
def test_torn_frame_recovers_under_spawn(start_method, channels):
    """The same with spawned workers: the respawn attaches by name."""
    _check_torn_frame_recovery()
    _assert_respawned_on_fresh_rings(channels, 0)


def _check_torn_frame_recovery():
    records = _records(300)
    injector = FaultInjector(seed=3).tear_frame(0, nth=3)
    result = _run(_service(injector), records)
    assert result.answers == _expected_global(records)
    assert result.stats.records_processed == len(records)
    assert injector.fired("torn-frame"), injector.events
    assert result.stats.shards[0].restores >= 1
    assert not result.stats.failed_shards
    assert result.stats.dead_letters == 0


def test_stale_duplicate_frame_is_absorbed_idempotently():
    """A replayed (already-acked) frame must not double-count records."""
    records = _records(300)
    injector = FaultInjector(seed=4).stale_frame(0, nth=2)
    result = _run(_service(injector), records)
    assert result.answers == _expected_global(records)
    assert result.stats.records_processed == len(records)
    assert injector.fired("stale-frame"), injector.events
    # Idempotent absorption needs no recovery at all.
    assert result.stats.shards[0].restores == 0


def test_sigkill_while_ring_full_replays_exactly():
    """Kill a slow worker while the producer is blocked on ring space.

    A tiny ring plus a throttled worker keeps the data ring saturated,
    so the SIGKILL lands with frames in flight on shared memory — the
    torn-ring teardown plus checkpoint/replay path must reconstruct
    every batch without loss or duplication.
    """
    _check_sigkill_while_ring_full()


@pytest.mark.parametrize("start_method", ["spawn"], indirect=True)
def test_sigkill_while_ring_full_under_spawn(start_method, channels):
    """The same with spawned workers: the respawn attaches by name."""
    _check_sigkill_while_ring_full()
    _assert_respawned_on_fresh_rings(channels, 0)


def _check_sigkill_while_ring_full():
    records = _records(280)
    injector = FaultInjector(seed=7).kill_worker(0, after_seq=4)
    service = _service(
        injector,
        ring_capacity=1024,
        queue_capacity=16,
        shard_delay_seconds=0.01,
    )
    result = _run(service, records)
    assert result.answers == _expected_global(records)
    assert result.stats.records_processed == len(records)
    assert injector.fired("kill"), injector.events
    assert result.stats.shards[0].restores >= 1
    # The ring actually filled: the producer measurably waited.
    assert result.stats.transport["ring_wait_seconds"] > 0.0
    assert not result.stats.failed_shards


def test_direct_sigkill_restores_from_checkpoint():
    """Checkpoint + retained-batch replay works over fresh rings."""
    records = _records(300)
    service = _service(num_shards=1)
    try:
        service.submit_many(records[:65])
        deadline = time.monotonic() + 10.0
        while service._transport.handles[0].snapshot_seq < 4:
            service.poll()
            if time.monotonic() > deadline:
                raise AssertionError("shard never checkpointed")
            time.sleep(0.01)
        victim = service.shard_pids()[0]
        os.kill(victim, signal.SIGKILL)
        service.submit_many(records[65:])
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    assert result.answers == _expected_global(records)
    assert result.stats.shards[0].restores == 1
    assert not result.stats.failed_shards


def test_poison_record_takes_pickle_fallback_and_quarantines():
    """A non-numeric poison value forces the pickled-frame fallback.

    The batch containing the poison cannot pass the columnar
    capability check, so it must ship as a CRC-protected pickled
    frame; the worker then quarantines the record and degrades only
    its key, while every clean key stays byte-identical.
    """
    records = _records(300)
    poison_key = records[150][0]
    poisoned = list(records)
    poisoned.insert(150, (poison_key, poison("transport-poison")))
    service = _service(mode="per_key", poison_policy="quarantine")
    try:
        service.submit_many(poisoned)
        stats = service.transport_stats()
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    assert stats["data_plane"] == "shm"
    assert stats["frames_pickled"] >= 1
    assert stats["frames_columnar"] >= 1
    expected = _expected_per_key(records)
    for key, answers in expected.items():
        if key == poison_key:
            produced = result.per_key.get(key, [])
            assert produced == answers[: len(produced)]
        else:
            assert result.per_key.get(key, []) == answers
    assert set(result.stats.degraded_keys) == {poison_key}
    assert any(
        "transport-poison" in letter.error
        for letter in result.dead_letters
    )


def test_torn_frame_on_every_shard_simultaneously():
    """Concurrent torn frames on all shards recover independently."""
    records = _records(260)
    injector = FaultInjector(seed=11)
    for shard_id in range(NUM_SHARDS):
        injector.tear_frame(shard_id, nth=2)
    result = _run(_service(injector), records)
    assert result.answers == _expected_global(records)
    assert len(injector.fired("torn-frame")) == NUM_SHARDS
    for shard in result.stats.shards:
        assert shard.restores >= 1
    assert not result.stats.failed_shards
