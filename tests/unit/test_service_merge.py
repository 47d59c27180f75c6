"""Unit tests for the merge frontier and the shard's slice fold.

Count and event time share both: every case runs once on each
timeline.  The queries are tumbling one-slice windows, so answer ``k``
*is* slice ``k``'s merged partial and slice arithmetic is readable off
the answers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import PoisonRecordError
from repro.operators.registry import get_operator
from repro.service.merge import EventTimeMerger, GlobalMerger
from repro.service.partition import Batch
from repro.service.shard import ShardConfig, ShardOutput, ShardState
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery

TIMELINES = ["count", "time"]


def make_merger(timeline, num_shards=2, operator="sum"):
    if timeline == "count":
        return GlobalMerger(
            [Query(2, 2)], get_operator(operator), "pairs", num_shards
        )
    return EventTimeMerger(
        [TimeQuery(1.0, 1.0)], get_operator(operator), "pairs", num_shards
    )


def window_end(timeline, index):
    """Where slice ``index``'s tumbling window reports."""
    return 2 * (index + 1) if timeline == "count" else float(index + 1)


def output(shard_id, seq, watermark, pieces=()):
    """An output whose pieces are ``(slice, value)``: each piece's first
    position is the slice's first position (slices are two wide)."""
    return ShardOutput(
        shard_id,
        seq,
        watermark,
        partials=[(index, 2 * index + 1, value) for index, value in pieces],
    )


def summary(answers):
    """``(window end, answer)`` pairs of count or time triples."""
    return [(end, answer) for end, _, answer in answers]


@pytest.mark.parametrize("timeline", TIMELINES)
class TestMergeFrontier:
    def test_slice_waits_for_every_shard_then_releases_once(self, timeline):
        merger = make_merger(timeline)
        assert merger.on_output(output(0, 1, 1, [(0, 5)])) == []
        # Shard 1's piece of slice 0 starts one position later.
        first = ShardOutput(1, 1, 1, partials=[(0, 2, 7)])
        released = merger.on_output(first)
        assert summary(released) == [(window_end(timeline, 0), 12)]
        assert merger.merged_slices == 1
        # A recovered worker re-emits the same output: nothing twice,
        # and its piece of the merged slice is not held for later.
        assert merger.on_output(first) == []
        assert merger.on_output(output(0, 1, 1, [(0, 5)])) == []
        assert merger.answers_emitted == 1
        merger.on_output(output(0, 2, 2, [(1, 1)]))
        released = merger.on_output(output(1, 2, 2))
        assert summary(released) == [(window_end(timeline, 1), 1)]

    def test_a_replayed_piece_of_an_open_slice_counts_once(self, timeline):
        merger = make_merger(timeline)
        piece = ShardOutput(0, 1, 0, partials=[(0, 1, 5)])
        merger.on_output(piece)
        merger.on_output(piece)  # replayed before the slice closed
        merger.on_output(ShardOutput(0, 2, 1, partials=[(0, 2, 7)]))
        released = merger.on_output(output(1, 1, 1))
        assert summary(released) == [(window_end(timeline, 0), 12)]

    def test_stale_watermark_is_ignored(self, timeline):
        merger = make_merger(timeline)
        merger.on_output(output(0, 2, 2, [(0, 1), (1, 2)]))
        merger.on_output(output(0, 1, 1))  # replay of an older batch
        released = merger.on_output(output(1, 1, 2))
        assert summary(released) == [
            (window_end(timeline, 0), 1),
            (window_end(timeline, 1), 2),
        ]
        assert merger.merged_slices == 2

    def test_mark_failed_unwedges_the_frontier(self, timeline):
        merger = make_merger(timeline)
        assert merger.on_output(output(0, 1, 2, [(0, 4), (1, 6)])) == []
        assert not merger.degraded
        released = merger.mark_failed(1)
        assert summary(released) == [
            (window_end(timeline, 0), 4),
            (window_end(timeline, 1), 6),
        ]
        assert merger.degraded
        assert merger.answers_emitted == 2

    def test_slice_nobody_contributed_to_is_the_identity(self, timeline):
        merger = make_merger(timeline)
        merger.on_output(output(0, 1, 2, [(1, 9)]))
        released = merger.on_output(output(1, 1, 2))
        assert summary(released) == [
            (window_end(timeline, 0), 0),
            (window_end(timeline, 1), 9),
        ]

    def test_pieces_combine_in_position_order(self, timeline):
        # Positions 1, 3, 5 hold 1.0, 1e16, -1e16: (1.0 + 1e16) + -1e16
        # is 0.0.  Shard order 0, 1, 2 and arrival order 1, 0, 2 both
        # put 1.0 last and give 1.0.
        merger = make_merger(timeline, num_shards=3)
        merger.on_output(ShardOutput(1, 1, 1, partials=[(0, 5, -1e16)]))
        merger.on_output(ShardOutput(0, 1, 1, partials=[(0, 3, 1e16)]))
        released = merger.on_output(
            ShardOutput(2, 1, 1, partials=[(0, 1, 1.0)])
        )
        assert summary(released) == [(window_end(timeline, 0), 0.0)]

    @pytest.mark.parametrize("name", ["first", "last"])
    def test_order_sensitive_operators_merge_in_stream_order(
        self, timeline, name
    ):
        # Shard 1 holds the slice's later half, and reports first.
        merger = make_merger(timeline, operator=name)
        merger.on_output(ShardOutput(1, 1, 1, partials=[(0, 2, "late")]))
        released = merger.on_output(
            ShardOutput(0, 1, 1, partials=[(0, 1, "early")])
        )
        wanted = "early" if name == "first" else "late"
        assert summary(released) == [(window_end(timeline, 0), wanted)]


def make_shard(timeline):
    if timeline == "count":
        config = ShardConfig(0, 2, (Query(2, 2),), get_operator("sum"))
    else:
        config = ShardConfig(
            0,
            2,
            (TimeQuery(1.0, 1.0),),
            get_operator("sum"),
            mode="time",
            slice_seconds=1.0,
        )
    return ShardState(config)


#: Stream positions this shard was routed (the other shard got 4), and
#: the event timestamps that put the same records in the same slices:
#: position 2 is exactly ``end_position(0)`` and stays in slice 0,
#: timestamp 1.0 is exactly ``end_time(0)`` and starts slice 1.
POSITIONS = [1, 2, 3, 5, 6]
TIMESTAMPS = [0.2, 0.9, 1.0, 2.5, 2.9]


def make_batch(timeline, values, seq=1, watermark=3, pick=slice(None)):
    return Batch(
        shard=0,
        seq=seq,
        watermark=watermark,
        positions=POSITIONS[pick],
        keys=["k"] * len(POSITIONS[pick]),
        values=values[pick],
        timestamps=TIMESTAMPS[pick] if timeline == "time" else None,
    )


def merged(pieces):
    """Each slice's pieces summed in position order: what the merger
    makes of them."""
    slices = {}
    for index, first, piece in sorted(pieces, key=lambda p: p[1]):
        slices[index] = slices.get(index, 0) + piece
    return slices


def per_record(timeline, values):
    """The same records one batch each: the per-record reference."""
    state = make_shard(timeline)
    pieces, dead, records = [], [], 0
    for offset in range(len(values)):
        out = state.process(
            make_batch(
                timeline,
                values,
                seq=offset + 1,
                pick=slice(offset, offset + 1),
            )
        )
        pieces += out.partials
        dead += out.dead_letters
        records += out.records
    return merged(pieces), dead, records


@pytest.mark.parametrize("timeline", TIMELINES)
class TestShardSliceFold:
    def test_runs_are_cut_at_slice_edges(self, timeline):
        values = [1, 10, 100, 1000, 10000]
        out = make_shard(timeline).process(make_batch(timeline, values))
        assert out.partials == [(0, 1, 11), (1, 3, 100), (2, 5, 11000)]
        assert out.records == 5 and out.dead_letters == []
        assert out.watermark == 3
        assert (merged(out.partials), [], 5) == per_record(timeline, values)

    def test_open_slices_ship_and_nothing_is_held(self, timeline):
        values = [1, 10, 100, 1000, 10000]
        state = make_shard(timeline)
        fresh = pickle.dumps(state)
        first = state.process(
            make_batch(timeline, values, watermark=2, pick=slice(0, 4))
        )
        # Slice 2 is still open, and ships as a piece all the same.
        assert first.partials == [(0, 1, 11), (1, 3, 100), (2, 5, 1000)]
        assert first.watermark == 2
        assert pickle.dumps(state) == fresh
        second = state.process(
            make_batch(timeline, values, seq=2, watermark=1, pick=slice(4, 5))
        )
        assert second.partials == [(2, 6, 10000)]
        assert second.watermark == 1  # echoed, even when it is stale
        assert pickle.dumps(state) == fresh

    def test_a_replayed_frame_yields_the_same_pieces(self, timeline):
        values = [1, "x", 100, 1000, 10000]
        state = make_shard(timeline)
        once = state.process(make_batch(timeline, values))
        again = state.process(make_batch(timeline, values))
        assert repr(once) == repr(again)

    def test_poison_is_quarantined_as_the_per_record_path_would(
        self, timeline
    ):
        # Slice 0 is poisoned mid-run, slice 1 is all poison.
        values = [1, "x", "y", 1000, 10000]
        out = make_shard(timeline).process(make_batch(timeline, values))
        assert out.partials == [(0, 1, 1), (2, 5, 11000)]  # none for 1
        assert [
            (letter.position, letter.value) for letter in out.dead_letters
        ] == [(2, "x"), (3, "y")]
        assert out.records == 3
        assert (
            merged(out.partials),
            out.dead_letters,
            out.records,
        ) == per_record(timeline, values)

    def test_one_poison_in_the_middle_run_spares_the_rest_of_the_batch(
        self, timeline
    ):
        # One shard, slices of four: runs (1..4), (5..8), (9..12); the
        # poison sits among clean records of the middle run.
        values = [1, 2, 3, 4, 10, "x", 30, 40, 100, 200, 300, 400]
        assert wide_pieces(timeline, [values]) == (
            [(0, 1, 10), (1, 5, 80), (2, 9, 1000)],
            [(6, "x")],
            11,
        )
        pieces, dead, records = wide_pieces(
            timeline, [[value] for value in values]
        )
        assert (merged(pieces), dead, records) == (
            {0: 10, 1: 80, 2: 1000},
            [(6, "x")],
            11,
        )

    def test_an_all_poison_run_in_a_whole_batch_fold_makes_no_entry(
        self, timeline
    ):
        values = [1, 2, 3, 4, "a", "b", "c", "d", 100, 200, 300, 400]
        pieces, dead, records = wide_pieces(timeline, [values])
        assert pieces == [(0, 1, 10), (2, 9, 1000)]  # none for slice 1
        assert [position for position, _ in dead] == [5, 6, 7, 8]
        assert records == 8

    def test_raise_policy_stops_at_the_poison_with_earlier_runs_folded(
        self, timeline
    ):
        state = make_wide_shard(timeline, poison_policy="raise")
        fresh = pickle.dumps(state)
        values = [1, 2, 3, 4, 10, "x", 30, 40]
        with pytest.raises(PoisonRecordError, match="position 6"):
            state.process(wide_batch(timeline, values, first=1, seq=1))
        assert pickle.dumps(state) == fresh


def make_wide_shard(timeline, **options):
    if timeline == "count":
        config = ShardConfig(
            0, 1, (Query(4, 4),), get_operator("sum"), **options
        )
    else:
        config = ShardConfig(
            0,
            1,
            (TimeQuery(1.0, 1.0),),
            get_operator("sum"),
            mode="time",
            slice_seconds=1.0,
            **options,
        )
    return ShardState(config)


def wide_batch(timeline, values, first, seq, watermark=0):
    """Consecutive positions from ``first``; four records per slice on
    either timeline (timestamps 0.0, 0.25, 0.5, 0.75, 1.0, ...)."""
    positions = list(range(first, first + len(values)))
    return Batch(
        shard=0,
        seq=seq,
        watermark=watermark,
        positions=positions,
        keys=["k"] * len(values),
        values=values,
        timestamps=(
            [(position - 1) * 0.25 for position in positions]
            if timeline == "time"
            else None
        ),
    )


def wide_pieces(timeline, chunks):
    """``(pieces, dead letters, records)`` of consecutive batches."""
    state = make_wide_shard(timeline)
    pieces, dead, records = [], [], 0
    first = 1
    for seq, chunk in enumerate(chunks, start=1):
        out = state.process(wide_batch(timeline, chunk, first, seq))
        first += len(chunk)
        pieces += out.partials
        dead += [(letter.position, letter.value) for letter in out.dead_letters]
        records += out.records
    return pieces, dead, records
