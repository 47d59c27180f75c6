"""Integration tests for the event-time sharded service.

The chaos scenarios of time mode: a worker is SIGKILLed while the
ingress reorder buffer still holds unreleased records, or its frames
are torn, duplicated or wedged on the ring.  The supervisor respawns
it fresh — a time-mode shard holds nothing between frames — and
replays the frames it had not acknowledged; replayed outputs carry
stale slice watermarks, which the merger's monotone per-shard
watermark ignores, and replayed pieces, which it deduplicates, so the
final answers are still byte-identical to a fault-free single-node
run.

Marked ``chaos`` (real processes, SIGKILL, restart backoffs); the
in-process equivalence tests live in
``tests/property/test_prop_event_time.py``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.operators.registry import get_operator
from repro.service import AggregationService, FaultInjector
from repro.windows.timebased import TimeQuery
from tests import oracle

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]

QUERIES = (TimeQuery(2.0, 1.0), TimeQuery(5.0, 2.0))
NUM_SHARDS = 3
LATENESS = 1.0


def _event_stream(count):
    """A bounded-disorder (key, timestamp, value) stream.

    Timestamps are strictly increasing on a 0.1s grid before the
    shuffle; the deterministic jitter stays under the lateness bound,
    so every record is releasable and the sorted oracle is exact.
    """
    records = [
        (
            f"sensor-{i % 7}",
            i / 10 + 0.011,
            (i * 37 + 5) % 203 - 101,
        )
        for i in range(count)
    ]
    return sorted(
        records, key=lambda r: r[1] + ((hash(r[0]) ^ int(r[1] * 10)) % 9) / 10
    )


def _wait_pid_dead(pid, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", "rb") as stat:
                line = stat.read().decode("ascii", "replace")
        except (FileNotFoundError, ProcessLookupError):
            if not os.path.isdir("/proc"):
                time.sleep(0.05)
            return
        state = line.rpartition(")")[2].split()
        if state and state[0] in ("Z", "X", "x"):
            return
        time.sleep(0.005)
    raise AssertionError(
        f"pid {pid} still running {timeout}s after SIGKILL"
    )


def test_worker_kill_mid_reorder_keeps_watermark_monotone():
    """SIGKILL a worker while the reorder buffer is occupied.

    The respawned worker is sent the frames its predecessor had not
    acknowledged; the slice watermark the supervisor has absorbed never
    regresses, and the final answers must equal the single-node sorted
    oracle exactly.
    """
    records = _event_stream(600)
    expected = oracle.time_windows(
        get_operator("sum"), QUERIES, [(t, v) for _, t, v in records]
    )
    head, tail = records[:300], records[300:]

    service = AggregationService(
        list(QUERIES),
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        mode="time",
        transport="process",
        lateness=LATENESS,
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        stall_timeout=10.0,
    )
    answers = []
    try:
        for key, timestamp, value in head:
            service.submit_event(key, value, timestamp)
        answers.extend(service.poll())
        # Mid-reorder: the lateness bound keeps the tail of the stream
        # buffered at all times, so the buffer is provably occupied.
        stats = service.event_time_stats()
        assert stats["pending_reorder"] > 0

        watermarks_before = [
            handle.watermark for handle in service._transport.handles
        ]
        victim = service.shard_pids()[1]
        os.kill(victim, signal.SIGKILL)
        _wait_pid_dead(victim)

        for key, timestamp, value in tail:
            service.submit_event(key, value, timestamp)
            answers.extend(service.poll())
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    answers.extend(service.poll())

    # The worker recovered (restart budget not exhausted) ...
    assert result.stats.failed_shards == ()
    # ... its watermark only ever advanced across the crash ...
    watermarks_after = [
        handle.watermark for handle in service._transport.handles
    ]
    for before, after in zip(watermarks_before, watermarks_after):
        assert after >= before
    # ... every per-shard merge watermark is monotone by construction,
    # and the replayed outputs did not perturb the answers:
    assert answers == expected
    assert result.stats.late_records == 0
    assert [shard.checkpoints for shard in result.stats.shards] == [0] * 3


def test_repeated_kills_still_exact():
    """Two kills of different shards; answers stay byte-identical."""
    records = _event_stream(600)
    expected = oracle.time_windows(
        get_operator("sum"), QUERIES, [(t, v) for _, t, v in records]
    )

    service = AggregationService(
        list(QUERIES),
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        mode="time",
        transport="process",
        lateness=LATENESS,
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        stall_timeout=10.0,
    )
    answers = []
    try:
        for index, (key, timestamp, value) in enumerate(records):
            service.submit_event(key, value, timestamp)
            if index in (200, 400):
                answers.extend(service.poll())
                victim = service.shard_pids()[(index // 200) % NUM_SHARDS]
                os.kill(victim, signal.SIGKILL)
                _wait_pid_dead(victim)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    answers.extend(service.poll())
    assert result.stats.failed_shards == ()
    assert answers == expected


FAULTS = {
    "kill": lambda injector: injector.kill_worker(0, after_seq=4),
    "torn": lambda injector: injector.tear_frame(0, nth=3),
    "stale": lambda injector: injector.stale_frame(0, nth=2),
    "wedge": lambda injector: injector.wedge_shard(0, seq=3),
}


@pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_transport_faults_recover_exactly(start_method, fault):
    """Each ring fault of the count-mode chaos suite, in time mode."""
    records = _event_stream(300)
    expected = oracle.time_windows(
        get_operator("sum"), QUERIES, [(t, v) for _, t, v in records]
    )
    injector = FAULTS[fault](FaultInjector(seed=11))
    service = AggregationService(
        list(QUERIES),
        get_operator("sum"),
        num_shards=2,
        mode="time",
        lateness=LATENESS,
        batch_size=10,
        restart_backoff=0.0,
        stall_timeout=1.0,
        injector=injector,
    )
    try:
        service.submit_events(records)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    assert injector.events, fault
    assert result.answers == expected
    assert result.stats.records_processed == len(records)
    assert result.stats.failed_shards == ()
    assert result.stats.dead_letters == 0
    assert (result.stats.shards[0].restores > 0) is (fault != "stale")
    assert [shard.checkpoints for shard in result.stats.shards] == [0, 0]
