"""Unit tests: hash partitioning, the global-mode frame splitter,
per-key batch framing, slice arithmetic, load-shedding helpers, and
the cross-shard merge capability check."""

from __future__ import annotations

import pytest

from repro.errors import MergeCapabilityError, ServiceError
from repro.operators.positional import FirstOperator, LastOperator
from repro.operators.registry import get_operator
from repro.service.merge import check_mergeable
from repro.service.partition import (
    Batch,
    Router,
    drop_records,
    shard_of,
    stable_hash,
    thin_batch,
)
from repro.service.shard import ShardConfig
from repro.service.slices import SliceClock
from repro.stream.watermark import TimeSliceClock
from repro.windows.partial import PartialAggregator
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query

QUERIES = (Query(8, 4), Query(6, 2))


# -- hash partitioning ----------------------------------------------


def test_stable_hash_is_deterministic_across_runs():
    # FNV-1a over repr: these constants must never change, or restored
    # checkpoints would see keys migrate between shards.
    assert stable_hash("sensor-1") == 0x7DA0B3B92DB1CB7F
    assert stable_hash(42) == 0x07EE7E07B4B19223
    assert stable_hash(("eu", 7)) == 0x9D060A0985577E43


def test_stable_hash_differs_from_salted_builtin_behaviour():
    # Same key, same shard — the entire recovery design rests on this.
    for key in ("a", "b", "sensor-99", 123, (1, "x")):
        assert shard_of(key, 5) == shard_of(key, 5)
        assert 0 <= shard_of(key, 5) < 5


def test_shard_of_spreads_keys_reasonably():
    shards = [shard_of(f"key-{i}", 4) for i in range(400)]
    counts = [shards.count(s) for s in range(4)]
    assert all(count > 40 for count in counts), counts


# -- batch framing --------------------------------------------------


def _clock():
    return SliceClock(build_shared_plan(QUERIES, "pairs"))


def test_router_frames_gapless_sequences_per_shard():
    router = Router(num_shards=3, batch_size=4, clock=_clock())
    shipped = []
    for i in range(100):
        shipped.extend(router.put(f"k{i % 7}", i))
    shipped.extend(router.flush())
    per_shard = {}
    for batch in shipped:
        per_shard.setdefault(batch.shard, []).append(batch.seq)
    for shard, seqs in per_shard.items():
        assert seqs == list(range(1, len(seqs) + 1)), shard


def test_router_assigns_global_positions_exactly_once():
    router = Router(num_shards=4, batch_size=5, clock=_clock())
    shipped = []
    for i in range(61):
        shipped.extend(router.put(f"k{i % 9}", i))
    shipped.extend(router.flush())
    positions = sorted(
        position for batch in shipped for position in batch.positions
    )
    assert positions == list(range(1, 62))


def test_router_flush_round_carries_uniform_watermark_to_all_shards():
    router = Router(num_shards=3, batch_size=4, clock=_clock())
    shipped = []
    for i in range(24):
        shipped.extend(router.put(f"k{i % 5}", i))
    rounds = {}
    for batch in shipped:
        rounds.setdefault(batch.watermark, set()).add(batch.shard)
    # Every watermark reached all three shards by the end of its call
    # (watermark-only carriers count).
    for watermark, shards in rounds.items():
        assert shards == {0, 1, 2}, (watermark, shards)


def test_router_per_key_mode_skips_empty_frames():
    router = Router(num_shards=8, batch_size=2, clock=None)
    shipped = []
    for i in range(10):
        shipped.extend(router.put("always-same-key", i))
    shipped.extend(router.flush())
    assert shipped  # one busy shard
    assert all(len(batch) > 0 for batch in shipped)
    assert len({batch.shard for batch in shipped}) == 1


def test_router_rejects_bad_configuration():
    with pytest.raises(ServiceError):
        Router(num_shards=0, batch_size=4)
    with pytest.raises(ServiceError):
        Router(num_shards=2, batch_size=0)


# -- the frame splitter (global and time mode) -----------------------


def test_splitter_deals_contiguous_frames_round_robin():
    router = Router(num_shards=3, batch_size=4, clock=_clock())
    shipped = router.put_many([(f"k{i}", i) for i in range(10)])
    shipped += router.put_many([(f"k{i}", i) for i in range(10, 21)])
    frames = [batch for batch in shipped if len(batch)]
    # Framing ignores the call cut: 4-record runs, shards in turn.
    assert [(b.shard, b.positions) for b in frames] == [
        (0, range(1, 5)),
        (1, range(5, 9)),
        (2, range(9, 13)),
        (0, range(13, 17)),
        (1, range(17, 21)),
    ]
    assert frames[3].keys == ["k12", "k13", "k14", "k15"]
    assert frames[3].values == [12, 13, 14, 15]
    assert router.position == 21
    [last] = [b for b in router.flush() if len(b)]
    assert (last.shard, last.positions) == (2, range(21, 22))


def test_splitter_watermarks_are_sound_and_reach_every_live_shard():
    clock = _clock()
    router = Router(num_shards=3, batch_size=4, clock=clock)
    sent = {}
    for call in range(12):
        records = [("k", call)] * (call % 7)
        for batch in router.put_many(records):
            # A shard's watermark never claims a slice it may still be
            # sent records of: its later frames start past the slice.
            sent.setdefault(batch.shard, []).append(batch)
        # After every call each shard has the framed-stream watermark.
        framed = router.position - len(router._held_values)
        assert {
            sent[shard][-1].watermark if shard in sent else 0
            for shard in range(3)
        } == {clock.slices_closed_by(framed)}
    for frames in sent.values():
        for earlier, later in zip(frames, frames[1:]):
            if len(later):
                assert clock.slice_of(later.positions[0]) >= earlier.watermark
        assert [b.seq for b in frames] == list(range(1, len(frames) + 1))


def test_retired_shard_gets_no_more_frames():
    router = Router(num_shards=3, batch_size=2, clock=_clock())
    router.put_many([("k", 1), ("k", 2)])
    router.retire(1)
    shipped = router.put_many([("k", v) for v in range(3, 9)])
    # Shard 1's turn passes to shard 2.
    assert [b.shard for b in shipped if len(b)] == [2, 0, 2]
    assert 1 not in {b.shard for b in shipped}
    router.retire(0)
    router.retire(2)  # the last live shard stays
    assert {b.shard for b in router.put_many([("k", 9)] * 4)} == {2}


@pytest.mark.parametrize(
    "bad",
    [("only-a-key",), ("k", 1, "extra"), 7],
    ids=["1-tuple", "3-tuple", "not-a-tuple"],
)
def test_put_many_is_all_or_nothing_in_global_mode(bad):
    good = [(f"k{i % 5}", i) for i in range(60)]
    router = Router(num_shards=3, batch_size=4, clock=_clock())
    router.put_many(good[:30])
    with pytest.raises((TypeError, ValueError, IndexError)):
        router.put_many(good[30:41] + [bad] + good[41:])
    # Nothing of the refused call was positioned or framed: resending
    # it without the bad record frames exactly the clean stream.
    assert router.position == 30
    shipped = router.put_many(good[30:]) + router.flush()
    clean = Router(num_shards=3, batch_size=4, clock=_clock())
    expected = clean.put_many(good[:30])
    expected = clean.put_many(good[30:]) + clean.flush()
    assert _frames(shipped) == _frames(expected)


# -- the per-key routing core: partial-batch failures ----------------
# (put_many == per-record put is tests/property/test_prop_router.py)


def _frames(batches):
    return [
        (
            b.shard,
            b.seq,
            b.watermark,
            list(b.positions),
            b.keys,
            list(b.values),
            b.traces,
        )
        for b in batches
    ]


def _per_record(records, num_shards=3, batch_size=4):
    router = Router(num_shards, batch_size)
    shipped = []
    for key, value in records:
        shipped.extend(router.put(key, value))
    shipped.extend(router.flush())
    return _frames(shipped)


@pytest.mark.parametrize(
    "bad",
    [("only-a-key",), ("k", 1, "extra"), 7, (["unhashable"], 1)],
    ids=["1-tuple", "3-tuple", "not-a-tuple", "unhashable-key"],
)
def test_put_many_routes_the_prefix_of_a_malformed_call(bad):
    # Per-key mode: a key's answers are its own, so the routed prefix
    # of a malformed call is a valid stream on its own.
    good = [(f"k{i % 5}", i) for i in range(60)]
    never = [("never", -1)] * 3
    router = Router(num_shards=3, batch_size=4)
    consumed = iter(good[:41] + [bad] + never)
    with pytest.raises((TypeError, ValueError)):
        router.put_many(consumed)
    # Every record before the bad one is routed, none after it is even
    # consumed, and position counts exactly the routed ones.
    assert router.position == 41
    assert list(consumed) == never
    assert "never" not in router.seen_keys[router.shard_for("never")]
    # The next call continues cleanly and hands over the rounds the
    # failed call had framed first: nothing lost, no sequence gap.
    shipped = router.put_many(good[41:])
    shipped.extend(router.flush())
    assert _frames(shipped) == _per_record(good)


def test_put_many_frames_a_wire_column_view_like_its_rows():
    from repro.net.protocol import (
        FrameType,
        encode_frame,
        try_decode_frame_traced,
    )

    records = [(f"k{i % 5}", i) for i in range(60)]
    (frame, _) = try_decode_frame_traced(
        encode_frame(FrameType.SUBMIT_BATCH, records)
    )
    router = Router(num_shards=3, batch_size=4, clock=_clock())
    shipped = router.put_many(frame.payload, trace=7)
    shipped.extend(router.flush())
    by_rows = Router(num_shards=3, batch_size=4, clock=_clock())
    expected = by_rows.put_many(records, trace=7) + by_rows.flush()
    assert _frames(shipped) == _frames(expected)
    assert router.position == 60


def test_failed_call_keeps_its_framed_rounds_for_flush():
    router = Router(num_shards=1, batch_size=2)
    with pytest.raises(ValueError):
        router.put_many([("k", 1), ("k", 2), ("k", 3), ()])
    first, second = router.flush()
    assert (first.seq, list(first.values)) == (1, [1, 2])
    assert (second.seq, list(second.values)) == (2, [3])
    assert router.flush() == []


def test_shard_for_agrees_with_routing_and_does_not_mark_seen():
    router = Router(num_shards=5, batch_size=4)
    assert router.shard_for("unrouted") == shard_of("unrouted", 5)
    assert all("unrouted" not in seen for seen in router.seen_keys)
    [batch] = [b for b in router.put("k", 1) + router.flush() if len(b)]
    assert router.shard_for("k") == batch.shard == shard_of("k", 5)
    assert "k" in router.seen_keys[batch.shard]


def _timed_router():
    return Router(2, 4, TimeSliceClock(1.0))


def test_event_time_router_takes_timestamped_columns_and_nothing_else():
    with pytest.raises(ServiceError, match="timestamps"):
        Router(2, 4, _clock()).split(["k"], [1], None, [0.5])
    timed = _timed_router()
    timed.watermark.advance(5)
    timed.split(["k"], [1], None, [0.5])
    [batch] = [b for b in timed.flush() if len(b)]
    assert list(batch.timestamps) == [0.5] and batch.positions == range(1, 2)
    # A timestamp the f64 column cannot hold, or ragged columns, are
    # refused before anything is held, so the columns never go ragged.
    with pytest.raises(TypeError):
        timed.split(["k"], [2], None, ["noon"])
    with pytest.raises(ServiceError, match="one length"):
        timed.split(["k", "j"], [2], None, [1.5])
    assert timed.position == 1 and timed.flush() == []


def test_event_time_router_refuses_rows_before_touching_anything():
    timed = _timed_router()
    timed.split(["k"], [1], None, [0.5])
    for refused in (
        lambda: timed.put("j", 2),
        lambda: timed.put("j", 2, trace=9),
        lambda: timed.put_many([("j", 2), ("k", 3)]),
        lambda: timed.put_many(iter([("j", 2)]), trace=9),
        lambda: timed.split(["j"], [2]),
    ):
        with pytest.raises(ServiceError, match="timestamps"):
            refused()
    assert timed.position == 1
    timed.watermark.advance(1)
    [batch] = [b for b in timed.flush() if len(b)]
    assert (list(batch.positions), batch.keys, batch.values) == ([1], ["k"], [1])
    assert list(batch.timestamps) == [0.5] and batch.traces is None


def test_time_mode_watermark_is_capped_by_the_records_held():
    timed = _timed_router()
    timed.watermark.advance(9)  # the service's event watermark
    shipped = timed.split(["k"] * 6, list(range(6)), None, [0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
    # Records at 4.5 and 5.5 are held: slice 4 cannot close yet.
    assert [(b.shard, b.watermark, len(b)) for b in shipped] == [
        (0, 4, 4),
        (1, 4, 0),
    ]
    assert {b.watermark for b in timed.flush()} == {9}


# -- load-shedding helpers ------------------------------------------


def _batch():
    return Batch(0, 7, 3, [1, 2, 3, 4, 5], list("abcde"), [10, 20, 30, 40, 50])


def test_drop_records_keeps_frame_and_counts_exactly():
    empty, dropped = drop_records(_batch())
    assert dropped == 5
    assert len(empty) == 0
    assert (empty.shard, empty.seq, empty.watermark) == (0, 7, 3)


def test_thin_batch_keeps_every_other_record_deterministically():
    thinned, dropped = thin_batch(_batch())
    assert dropped == 2
    assert thinned.positions == [1, 3, 5]
    assert thinned.keys == ["a", "c", "e"]
    assert thinned.values == [10, 30, 50]
    # A splitter frame's range thins to an exact stride-2 range.
    ranged = Batch(0, 7, 3, range(11, 16), list("abcde"), [1, 2, 3, 4, 5])
    thinned, dropped = thin_batch(ranged)
    assert (thinned.positions, dropped) == (range(11, 16, 2), 2)
    with pytest.raises(ServiceError):
        thin_batch(_batch(), keep_every=1)


# -- slice arithmetic -----------------------------------------------


@pytest.mark.parametrize("technique", ["panes", "pairs"])
@pytest.mark.parametrize(
    "queries",
    [QUERIES, (Query(5, 3),), (Query(12, 4), Query(9, 3), Query(4, 2))],
)
def test_slice_clock_matches_partial_aggregator_boundaries(
    queries, technique
):
    plan = build_shared_plan(queries, technique)
    clock = SliceClock(plan)
    folder = PartialAggregator(get_operator("count"), plan)
    boundaries = []
    for position in range(1, 161):
        if folder.feed(0) is not None:
            boundaries.append(position)
    for index, end in enumerate(boundaries):
        assert clock.end_position(index) == end
        assert clock.step_of(index) == plan.steps[index % len(plan.steps)]
    for position in range(1, 161):
        expected_closed = sum(1 for end in boundaries if end <= position)
        assert clock.slices_closed_by(position) == expected_closed
        containing = sum(1 for end in boundaries if end < position)
        assert clock.slice_of(position) == containing


# -- merge capability -----------------------------------------------


def test_check_mergeable_accepts_the_paper_operators():
    for name in ("sum", "count", "max", "min", "mean", "stddev", "range"):
        check_mergeable(get_operator(name))


def test_check_mergeable_accepts_order_sensitive_operators():
    # Pieces combine in stream order, so commutativity is not needed.
    for operator in (FirstOperator(), LastOperator()):
        check_mergeable(operator)
    for name in ("argmax_cos", "argmin_x2"):
        check_mergeable(get_operator(name))


def test_check_mergeable_rejects_operators_without_engine_path():
    # ``bit_and`` is commutative but neither invertible, selection-type
    # nor an algebraic composition: the shared engine refuses it too.
    # (Range, a composition, runs per component: see the test above.)
    with pytest.raises(MergeCapabilityError, match="processing path"):
        check_mergeable(get_operator("bit_and"))


def test_shard_config_validates_mode_and_interval():
    with pytest.raises(ServiceError):
        ShardConfig(0, 1, QUERIES, get_operator("sum"), mode="bogus")
    with pytest.raises(ServiceError):
        ShardConfig(
            0, 1, QUERIES, get_operator("sum"), checkpoint_interval=-1
        )
