"""Property-based chaos tests: faulty runs equal fault-free runs.

Two layers:

* a fast hypothesis property over the inline transport — poison
  records at arbitrary stream positions never disturb clean keys, and
  every poison record is accounted for in the dead-letter sink;
* a seeded random-schedule property over real processes (marked
  ``chaos``): :meth:`FaultInjector.random` draws worker kills,
  sub-timeout stalls, and a checkpoint corruption, and the service's
  global answers must still be byte-identical to the single-process
  engine.  The same seed always replays the same schedule, so a
  failure here is reproducible by rerunning the seed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.registry import get_operator
from repro.service import AggregationService, FaultInjector, poison
from repro.service.chaos import PoisonValue
from repro.stream.engine import StreamEngine
from repro.stream.sink import CollectSink
from repro.windows.query import Query

QUERIES = (Query(10, 3), Query(6, 2))
KEYS = ["a", "b", "c", "d", "e"]


def _per_key_expected(records):
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


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(KEYS),
            st.integers(min_value=-50, max_value=50),
        ),
        min_size=10,
        max_size=120,
    ),
    poison_positions=st.sets(
        st.integers(min_value=0, max_value=119), max_size=4
    ),
    num_shards=st.integers(min_value=1, max_value=4),
    batch_size=st.integers(min_value=1, max_value=16),
)
def test_poison_anywhere_never_disturbs_clean_keys(
    records, poison_positions, num_shards, batch_size
):
    poisoned = list(records)
    hit = sorted(p for p in poison_positions if p < len(records))
    for offset, position in enumerate(hit):
        poisoned.insert(
            position + offset, (KEYS[offset % len(KEYS)], poison())
        )
    with AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=num_shards,
        mode="per_key",
        batch_size=batch_size,
        transport="inline",
    ) as service:
        service.submit_many(poisoned)
        result = service.close()

    poisoned_keys = set(result.stats.degraded_keys)
    expected = _per_key_expected(records)
    for key, answers in expected.items():
        if key in poisoned_keys:
            # Exact prefix until the poison record, then quarantined.
            produced = result.per_key.get(key, [])
            assert produced == answers[: len(produced)]
        else:
            assert result.per_key.get(key, []) == answers
    # Every poison record is in the sink; no clean record joins it
    # unless its key was degraded first.
    assert len(
        [l for l in result.dead_letters if "poison value" in l.error]
    ) == len(hit)
    assert all(
        isinstance(l.value, PoisonValue) or l.key in poisoned_keys
        for l in result.dead_letters
    )
    assert result.stats.dead_letters == len(result.dead_letters)
    assert result.stats.records_processed == len(poisoned) - len(
        result.dead_letters
    )


@pytest.mark.chaos
@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", [11, 23, 37, 58])
def test_random_fault_schedule_preserves_global_answers(seed):
    records = [
        (f"key-{i % 7}", (i * 31 + seed) % 177 - 88) for i in range(500)
    ]
    injector = FaultInjector.random(
        seed=seed, num_shards=3, max_seq=12
    )
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=3,
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        stall_timeout=10.0,
        injector=injector,
    )
    try:
        service.submit_many(records)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    sink = CollectSink()
    StreamEngine(QUERIES, get_operator("sum"), sinks=[sink]).run(
        value for _, value in records
    )
    assert result.answers == sink.answers
    assert result.stats.records_processed == len(records)
    assert not result.stats.failed_shards
    assert result.stats.dead_letters == 0
    # Kills scheduled within the shipped range actually fired and were
    # recovered from (a draw past the stream's end fires nothing; two
    # kills in quick succession on one shard can land on an
    # already-dead process and coalesce into a single recovery).
    fired = len(injector.fired("kill"))
    restores = sum(s.restores for s in result.stats.shards)
    if fired:
        assert 1 <= restores <= fired
    else:
        assert restores == 0
