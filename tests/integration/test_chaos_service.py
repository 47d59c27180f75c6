"""Integration chaos suite: provoked failures over real worker processes.

The acceptance scenario for the failure-hardening work: with fault
injection enabled — a worker SIGKILL at a chosen batch sequence, a
bit-flipped checkpoint, one poison record per shard, and a stalled
shard — the service terminates within its timeout, clean-key answers
are byte-identical to a fault-free run, poison records land in the
dead-letter sink carrying their originating exception, and a shard
that exhausts its restart budget is reported ``failed`` without
blocking the remaining shards.

Marked ``chaos``: the suite spawns and kills real processes and sleeps
through backoffs/stall timeouts, so CI runs it as a separate job
(``pytest -m chaos``); the default job deselects it.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.operators.registry import get_operator
from repro.service import AggregationService, FaultInjector, poison
from repro.service.partition import shard_of
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery
from tests import oracle

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]

QUERIES = (Query(12, 4), Query(8, 2))
SUM = get_operator("sum")
NUM_SHARDS = 3


def _records(count):
    # Integers keep cross-shard recombination exact (byte-identical).
    return [
        (f"sensor-{i % 11}", (i * 37 + 5) % 203 - 101)
        for i in range(count)
    ]


def _wait_snapshot(service, shard_id, seq, timeout=10.0):
    """Poll until the supervisor has absorbed a checkpoint >= ``seq``.

    Checkpoints are absorbed opportunistically during polls, so tests
    that need "a corrupt snapshot is on file before the kill" ordering
    must wait for the absorb rather than assume it.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        service.poll()
        if service._transport.handles[shard_id].snapshot_seq >= seq:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"shard {shard_id} never checkpointed past seq {seq}"
    )


def _wait_pid_dead(pid, timeout=10.0):
    """Poll until ``pid`` is gone or a zombie awaiting reap.

    SIGKILL delivery is asynchronous: a fixed post-kill sleep races the
    kernel on a loaded runner.  A zombie counts as dead — it can never
    touch its queues again — and we must *not* wait for the reap
    itself, because the supervisor only reaps during the next
    submit/poll, which these tests deliberately hold back.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", "rb") as stat:
                line = stat.read().decode("ascii", "replace")
        except (FileNotFoundError, ProcessLookupError):
            if not os.path.isdir("/proc"):
                # No procfs (macOS dev boxes): fall back to the old
                # fixed wait rather than skipping it entirely.
                time.sleep(0.05)
            return
        # State is the first field after the parenthesised comm, which
        # may itself contain spaces and parentheses.
        state = line.rpartition(")")[2].split()
        if state and state[0] in ("Z", "X", "x"):
            return
        time.sleep(0.005)
    raise AssertionError(
        f"pid {pid} still running {timeout}s after SIGKILL"
    )


def _prefix_with_n_shard_records(records, shard_id, n):
    """Split so the prefix routes exactly ``n`` records to ``shard_id``.

    Lets a test bound how many batches a shard has shipped before a
    mid-stream fault is triggered — checkpoint-generation tests need
    the corrupt snapshot to still be the *current* one at kill time.
    """
    count = 0
    for index, (key, _) in enumerate(records):
        if shard_of(key, NUM_SHARDS) == shard_id:
            count += 1
            if count == n:
                return records[: index + 1], records[index + 1:]
    raise AssertionError(
        f"stream routes fewer than {n} records to shard {shard_id}"
    )


def test_acceptance_full_chaos_suite():
    """Kill + corrupt checkpoint + poison per shard + stall, all at once."""
    records = _records(420)
    # One poison record per shard, addressed to the first key that
    # hashes to it, spliced into the middle of the stream.
    shard_keys = {}
    for key, _ in records:
        shard_keys.setdefault(shard_of(key, NUM_SHARDS), key)
    assert len(shard_keys) == NUM_SHARDS
    poisoned_keys = set(shard_keys.values())
    poisoned = list(records)
    for shard_id, key in sorted(shard_keys.items()):
        poisoned.insert(
            200 + 40 * shard_id, (key, poison(f"shard-{shard_id}"))
        )

    injector = (
        FaultInjector(seed=42)
        .kill_worker(0, after_seq=4)
        .corrupt_checkpoint(1, nth=2)
        .stall_shard(2, seq=3, seconds=0.2)
    )
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        mode="per_key",
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        stall_timeout=5.0,
        injector=injector,
    )
    try:
        # Stop ingesting once shard 1 has shipped exactly 4 batches:
        # its 2nd checkpoint (= seq 4, the bit-flipped one) is then the
        # *current* generation when we kill it, so recovery must detect
        # the CRC failure and fall back to the seq-2 generation.
        head, tail = _prefix_with_n_shard_records(poisoned, 1, 40)
        service.submit_many(head)
        _wait_snapshot(service, 1, 4)
        victim = service.shard_pids()[1]
        os.kill(victim, signal.SIGKILL)
        _wait_pid_dead(victim)
        service.submit_many(tail)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    # Clean-key answers are byte-identical to a fault-free run.  A
    # poisoned key keeps its exact pre-poison prefix, then is degraded:
    # the engine raised mid-feed, so its state is discarded rather than
    # trusted, and later records for the key are dead-lettered.
    expected = oracle.per_key_windows(SUM, QUERIES, records)
    for key, answers in expected.items():
        if key in poisoned_keys:
            produced = result.per_key.get(key, [])
            assert produced == answers[: len(produced)]
        else:
            assert result.per_key.get(key, []) == answers
    assert set(result.stats.degraded_keys) == poisoned_keys
    assert not result.stats.failed_shards

    # Every poison record is quarantined with its originating error;
    # the degraded keys' later records follow it into the sink.
    originating = [
        letter
        for letter in result.dead_letters
        if "poison value" in letter.error
    ]
    assert len(originating) == NUM_SHARDS
    for letter in originating:
        assert f"shard-{letter.shard_id}" in letter.error
        assert letter.key == shard_keys[letter.shard_id]
    assert result.stats.dead_letters == len(result.dead_letters)
    assert result.stats.records_processed == len(poisoned) - len(
        result.dead_letters
    )

    # The scheduled faults actually fired and were survived.
    assert injector.fired("kill"), injector.events
    assert injector.fired("corrupt-checkpoint"), injector.events
    by_shard = {s.shard_id: s for s in result.stats.shards}
    assert by_shard[1].corrupt_checkpoints >= 1
    assert sum(s.restores for s in result.stats.shards) >= 2


def test_corrupt_checkpoint_falls_back_one_generation():
    # Per-key mode: a global-mode shard holds nothing to checkpoint.
    records = _records(300)
    injector = FaultInjector(seed=9).corrupt_checkpoint(0, nth=3)
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=1,
        mode="per_key",
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        injector=injector,
    )
    try:
        # 65 records = 6 shipped batches: the corrupt 3rd checkpoint
        # (seq 6) is deterministically current at kill time.
        service.submit_many(records[:65])
        _wait_snapshot(service, 0, 6)
        victim = service.shard_pids()[0]
        os.kill(victim, signal.SIGKILL)
        _wait_pid_dead(victim)
        service.submit_many(records[65:])
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    assert result.per_key == oracle.per_key_windows(SUM, QUERIES, records)
    assert result.stats.shards[0].corrupt_checkpoints == 1
    assert result.stats.shards[0].restores == 1
    assert not result.stats.failed_shards


def test_both_generations_corrupt_fails_the_shard_cleanly():
    """No good checkpoint left: fail the shard, never guess at state."""
    records = _records(300)
    injector = (
        FaultInjector(seed=5)
        .corrupt_checkpoint(0, nth=2)
        .corrupt_checkpoint(0, nth=3)
    )
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=1,
        mode="per_key",
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        injector=injector,
    )
    try:
        # 6 shipped batches: seq 4 and seq 6 are the only generations
        # on file at kill time, and both are bit-flipped.
        service.submit_many(records[:65])
        _wait_snapshot(service, 0, 6)
        victim = service.shard_pids()[0]
        os.kill(victim, signal.SIGKILL)
        _wait_pid_dead(victim)
        service.submit_many(records[65:])
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    assert result.stats.failed_shards == (0,)
    assert 0 in service.failed_shards()
    assert "checkpoint" in service.failed_shards()[0]
    assert result.stats.shards[0].corrupt_checkpoints == 2
    # The un-acknowledged backlog is shed to the dead-letter sink, not
    # silently dropped.
    assert result.stats.dead_letters > 0
    assert all(
        "ShardFailedError" in letter.error
        for letter in result.dead_letters
    )


def test_restart_budget_exhaustion_does_not_block_other_shards():
    records = _records(450)
    injector = FaultInjector().crash_loop(1)
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        mode="per_key",
        batch_size=10,
        max_restarts=2,
        restart_backoff=0.0,
        injector=injector,
    )
    try:
        service.submit_many(records)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    assert result.stats.failed_shards == (1,)
    assert "restart budget" in service.failed_shards()[1]
    shard1_keys = {
        key for key, _ in records if shard_of(key, NUM_SHARDS) == 1
    }
    assert set(result.stats.degraded_keys) == shard1_keys
    # Clean shards' keys are byte-identical to the fault-free run.
    expected = oracle.per_key_windows(SUM, QUERIES, records)
    for key, answers in expected.items():
        if key not in shard1_keys:
            assert result.per_key.get(key, []) == answers
    # The failed shard's backlog is accounted for as dead letters:
    # processed + dead-lettered covers every submitted record.
    assert result.stats.dead_letters > 0
    assert {l.shard_id for l in result.dead_letters} == {1}
    assert (
        result.stats.records_processed + result.stats.dead_letters
        == result.stats.records_submitted
    )
    assert result.stats.degraded


def test_wedged_shard_is_stall_killed_and_recovered():
    records = _records(300)
    injector = FaultInjector().wedge_shard(1, seq=3)
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        stall_timeout=1.0,
        injector=injector,
    )
    try:
        service.submit_many(records)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    assert result.answers == oracle.count_windows(
        SUM, QUERIES, [v for _, v in records]
    )
    assert result.stats.shards[1].stalls >= 1
    assert result.stats.shards[1].restores >= 1
    assert injector.fired("wedge-cleared"), injector.events
    assert not result.stats.failed_shards


def test_sub_timeout_stall_is_tolerated_not_killed():
    """A slow shard is not a dead shard: finished batches keep it alive."""
    records = _records(200)
    injector = FaultInjector().stall_shard(1, seq=2, seconds=0.4)
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        batch_size=10,
        stall_timeout=5.0,
        injector=injector,
    )
    try:
        service.submit_many(records)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    assert result.answers == oracle.count_windows(
        SUM, QUERIES, [v for _, v in records]
    )
    assert all(s.stalls == 0 for s in result.stats.shards)
    assert all(s.restores == 0 for s in result.stats.shards)


def test_idle_gap_longer_than_stall_timeout_is_not_a_stall():
    """Silence with nothing outstanding is idleness, not a wedge.

    The stall clock used to date from the worker's last message, so
    the first batch after an idle gap longer than ``stall_timeout``
    found the shard "silent" already and killed it.
    """
    records = _records(120)
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=1,
        batch_size=10,
        stall_timeout=0.5,
    )
    try:
        service.submit_many(records[:60])
        handle = service._transport.handles[0]
        deadline = time.monotonic() + 10.0
        while handle.acked_seq < handle.shipped_seq:
            assert time.monotonic() < deadline, "shard never caught up"
            service.poll()
            time.sleep(0.01)
        time.sleep(1.0)
        service.submit_many(records[60:])
        service.poll()
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    assert result.answers == oracle.count_windows(
        SUM, QUERIES, [v for _, v in records]
    )
    assert result.stats.shards[0].stalls == 0
    assert result.stats.shards[0].restores == 0


def test_global_mode_poison_folds_through_a_temporary():
    """A poison record must not corrupt the slice accumulator."""
    records = _records(200)
    poisoned = list(records)
    poisoned.insert(57, ("sensor-3", poison("mid-slice")))
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        batch_size=10,
    )
    try:
        service.submit_many(poisoned)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise
    # The quarantined record's global position was already assigned by
    # the router, so its slot contributes the operator identity: the
    # answers equal a run with the poison *replaced by* identity (0 for
    # sum), proving the accumulator it touched was a temporary.
    neutralised = [
        (key, 0 if key == "sensor-3" and index == 57 else value)
        for index, (key, value) in enumerate(poisoned)
    ]
    assert result.answers == oracle.count_windows(
        SUM, QUERIES, [v for _, v in neutralised]
    )
    assert len(result.dead_letters) == 1
    assert result.dead_letters[0].key == "sensor-3"
    assert "mid-slice" in result.dead_letters[0].error
    assert result.stats.records_processed == len(records)


def test_global_failed_shard_dead_letters_exactly_its_unacked_frames():
    """Global mode: a failed shard degrades only the frames it held.

    Shard 1 acknowledges a few frames, then crash-loops through its
    restart budget.  Exactly the records of the frames it had not
    acknowledged are dead-lettered, with their keys; later frames skip
    it, and shard 0's answers keep flowing.
    """
    records = _records(400)
    injector = FaultInjector()
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        batch_size=10,
        checkpoint_interval=2,
        max_restarts=2,
        restart_backoff=0.0,
        injector=injector,
    )
    shipped = []
    ship = service._transport.ship

    def logged(batch):
        shipped.append(batch)
        ship(batch)

    service._transport.ship = logged
    handle = service._transport.handles[1]
    try:
        service.submit_many(records[:100])
        deadline = time.monotonic() + 10.0
        while handle.acked_seq < 3:
            service.poll()
            assert time.monotonic() < deadline, "shard 1 never acked"
            time.sleep(0.01)
        injector.crash_loop(1)
        victim = service.shard_pids()[1]
        os.kill(victim, signal.SIGKILL)
        _wait_pid_dead(victim)
        service.submit_many(records[100:250])
        flowing = []
        while not flowing or flowing[-1][0] < 240:
            flowing += service.poll()
            assert time.monotonic() < deadline + 30.0, "answers stalled"
            time.sleep(0.01)
        failed_at = len(shipped)
        service.submit_many(records[250:])
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    assert result.stats.failed_shards == (1,)
    held = {
        position
        for batch in shipped
        if batch.shard == 1 and batch.seq > handle.acked_seq
        for position in batch.positions
    }
    letters = result.dead_letters
    assert held and sorted(letter.position for letter in letters) == sorted(held)
    for letter in letters:
        assert "ShardFailedError" in letter.error and letter.shard_id == 1
        assert (letter.key, letter.value) == records[letter.position - 1]
    assert set(result.stats.degraded_keys) == {l.key for l in letters}
    assert all(batch.shard == 0 for batch in shipped[failed_at:])
    assert (
        result.stats.records_processed + result.stats.dead_letters
        == result.stats.records_submitted
    )
    # The answers are the stream's with every dead-lettered record
    # counted as the identity.
    neutralised = [
        (key, 0 if index + 1 in held else value)
        for index, (key, value) in enumerate(records)
    ]
    assert result.answers == oracle.count_windows(
        SUM, QUERIES, [v for _, v in neutralised]
    )


@pytest.mark.parametrize("mode", ["global", "time"])
def test_failed_merged_shard_keeps_the_records_it_acknowledged(mode):
    """A merged shard that fails loses none of its acknowledged records.

    Slices of 16 records straddle the 10-record frames, so when shard 1
    is killed (and then crash-loops through its restart budget) the
    last slice of its last acknowledged frame is still open.  Its
    pieces already reached the merger: the answers are the stream's
    with exactly the dead-lettered records counted as the identity.
    """
    records = _records(400)
    if mode == "global":
        queries = (Query(32, 16),)
    else:
        # Sixteen records per 2 s slice, on an exact binary grid.
        queries = (TimeQuery(4.0, 2.0),)
    injector = FaultInjector()
    service = AggregationService(
        queries,
        SUM,
        num_shards=2,
        mode=mode,
        batch_size=10,
        max_restarts=2,
        restart_backoff=0.0,
        injector=injector,
    )

    def submit(first, last):
        if mode == "global":
            service.submit_many(records[first:last])
        else:
            service.submit_events(
                (key, index * 0.125, value)
                for index, (key, value) in enumerate(
                    records[first:last], start=first
                )
            )

    handle = service._transport.handles[1]
    try:
        # Positions 1..100 go out as ten frames (the router, or in time
        # mode the reorder buffer, holds the 101st record back), and
        # shard 1's last one, 91..100, ends inside slice 97..112.
        submit(0, 101)
        deadline = time.monotonic() + 10.0
        while handle.acked_seq < max(3, handle.shipped_seq):
            service.poll()
            assert time.monotonic() < deadline, "shard 1 never caught up"
            time.sleep(0.01)
        injector.crash_loop(1)
        victim = service.shard_pids()[1]
        os.kill(victim, signal.SIGKILL)
        _wait_pid_dead(victim)
        submit(101, len(records))
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    assert result.stats.failed_shards == (1,)
    held = {letter.position for letter in result.dead_letters}
    assert held and all(
        "ShardFailedError" in letter.error and letter.shard_id == 1
        for letter in result.dead_letters
    )
    assert (
        result.stats.records_processed + result.stats.dead_letters
        == result.stats.records_submitted
        == len(records)
    )
    values = [
        0 if index + 1 in held else value
        for index, (_, value) in enumerate(records)
    ]
    if mode == "global":
        expected = oracle.count_windows(SUM, queries, values)
    else:
        expected = oracle.time_windows(
            SUM, queries, [(index * 0.125, v) for index, v in enumerate(values)]
        )
    assert result.answers == expected
    assert all(shard.checkpoints == 0 for shard in result.stats.shards)
