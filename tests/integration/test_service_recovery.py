"""Integration tests: real worker processes, fault injection, drops.

These exercise the process transport end to end — equivalence against
the single-process engine for the paper's acceptance operators, a
SIGKILL'd worker respawned and replayed with identical answers,
and exact accounting under the drop backpressure policy.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time

import pytest

from repro.errors import InvalidOperatorError, MergeCapabilityError
from repro.operators.registry import get_operator
from repro.service import AggregationService
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery
from tests import oracle

QUERIES = (Query(12, 4), Query(8, 2))


def _records(count):
    # Deterministic integers: cross-shard merging is exact on ints.
    return [
        (f"sensor-{i % 11}", (i * 37 + 5) % 203 - 101)
        for i in range(count)
    ]


@pytest.mark.parametrize("operator_name", ["sum", "count", "max", "mean"])
def test_four_shard_process_answers_equal_single_process(operator_name):
    records = _records(600)
    with AggregationService(
        QUERIES,
        get_operator(operator_name),
        num_shards=4,
        batch_size=32,
    ) as service:
        service.submit_many(records)
        result = service.close()
    assert result.answers == oracle.count_windows(
        get_operator(operator_name), QUERIES, [v for _, v in records]
    )
    assert result.stats.records_processed == len(records)
    assert result.stats.dropped_records == 0
    assert len(result.stats.shards) == 4


def test_killed_worker_is_restored_and_answers_are_identical():
    records = _records(900)
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=4,
        batch_size=16,
        checkpoint_interval=2,
    )
    try:
        midpoint = len(records) // 2
        service.submit_many(records[:midpoint])
        service.poll()
        victim = service.shard_pids()[2]
        os.kill(victim, signal.SIGKILL)
        # Give the OS a moment to reap so liveness checks see the death.
        time.sleep(0.05)
        service.submit_many(records[midpoint:])
        result = service.close()
    except BaseException:
        service.abort()
        raise
    assert result.answers == oracle.count_windows(
        get_operator("sum"), QUERIES, [v for _, v in records]
    )
    restores = [shard.restores for shard in result.stats.shards]
    assert sum(restores) >= 1, restores
    assert result.stats.records_processed == len(records)


def test_drop_policy_accounts_for_every_record():
    records = _records(800)
    with AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=4,
        batch_size=8,
        queue_capacity=1,
        backpressure="drop",
        checkpoint_interval=0,
        shard_delay_seconds=0.003,
    ) as service:
        service.submit_many(records)
        result = service.close()
    stats = result.stats
    assert stats.records_submitted == len(records)
    assert (
        stats.records_processed + stats.dropped_records
        == stats.records_submitted
    )
    # The slow shards must actually have shed load for this test to
    # mean anything; the delay above makes that overwhelmingly likely.
    assert stats.dropped_records > 0
    assert stats.dropped_records == sum(
        shard.dropped for shard in stats.shards
    )


def test_per_key_mode_over_processes_matches_per_key_engines():
    records = _records(400)
    with AggregationService(
        QUERIES,
        get_operator("first"),
        num_shards=3,
        mode="per_key",
        batch_size=16,
    ) as service:
        service.submit_many(records)
        result = service.close()

    assert result.per_key == oracle.per_key_windows(
        get_operator("first"), QUERIES, records
    )


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_per_key_range_answers_equal_per_key_engines(transport):
    # Range = Max − Min runs per component on each key's shared plan.
    records = _records(300)
    with AggregationService(
        QUERIES,
        get_operator("range"),
        num_shards=2,
        mode="per_key",
        batch_size=16,
        transport=transport,
    ) as service:
        service.submit_many(records)
        result = service.close()

    assert set(result.per_key) == {key for key, _ in records}
    assert result.per_key == oracle.per_key_windows(
        get_operator("range"), QUERIES, records
    )
    assert result.stats.degraded_keys == ()
    assert result.dead_letters == []


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_global_range_answers_equal_stream_engine(transport):
    # Range merges exactly across shards (Max and Min select), and its
    # merged slice partials drive the per-component shared engine.
    rng = random.Random(34)
    records = [
        (f"sensor-{rng.randrange(5)}", rng.uniform(-100.0, 100.0))
        for _ in range(3000)
    ]
    with AggregationService(
        QUERIES,
        get_operator("range"),
        num_shards=3,
        batch_size=37,
        transport=transport,
    ) as service:
        service.submit_many(records)
        result = service.close()
    expected = oracle.count_windows(
        get_operator("range"), QUERIES, [v for _, v in records]
    )
    assert len(result.answers) == 3000 // 4 + 3000 // 2
    assert repr(result.answers) == repr(expected)


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_time_range_answers_equal_event_time_engine(transport):
    queries = [TimeQuery(2.0, 1.0), TimeQuery(5.0, 2.0)]
    events = [
        (f"sensor-{i % 5}", i / 10 + 0.011, (i * 37 + 5) % 203 - 101)
        for i in range(600)
    ]
    expected = oracle.time_windows(
        get_operator("range"), queries, [(ts, value) for _, ts, value in events]
    )
    with AggregationService(
        queries,
        get_operator("range"),
        num_shards=3,
        mode="time",
        transport=transport,
        lateness=1.0,
    ) as service:
        service.submit_events(events)
        result = service.close()
    assert expected
    assert repr(result.answers) == repr(expected)


@pytest.mark.parametrize("mode", ["global", "time"])
def test_merged_modes_refuse_an_operator_without_engine_path(mode):
    queries = [TimeQuery(2.0, 1.0)] if mode == "time" else [Query(8, 2)]
    with pytest.raises(MergeCapabilityError, match="bit_and"):
        AggregationService(
            queries,
            get_operator("bit_and"),
            num_shards=2,
            mode=mode,
            transport="inline",
        )


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_per_key_service_refuses_an_operator_its_engines_cannot_run(
    transport,
):
    # ``bit_and`` has no SlickDeque path.  The service used to accept
    # it, then fail on the first submit (inline) or crash-loop both
    # workers and dead-letter every record (process).
    children = set(multiprocessing.active_children())
    with pytest.raises(InvalidOperatorError, match="bit_and"):
        AggregationService(
            [Query(8, 2)],
            get_operator("bit_and"),
            num_shards=2,
            mode="per_key",
            transport=transport,
            max_restarts=1,
            restart_backoff=0,
        )
    assert set(multiprocessing.active_children()) == children
