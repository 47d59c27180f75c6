"""Unit tests for the measurement harness."""

from __future__ import annotations

import math
import tracemalloc

import pytest

from repro.baselines.naive import NaiveAggregator
from repro.baselines.recalc import RecalcAggregator
from repro.core.slickdeque_inv import SlickDequeInv, SlickDequeInvMulti
from repro.metrics.memory import measure_memory, peak_memory_words
from repro.metrics.opcount import count_ops, count_ops_single
from repro.metrics.stats import (
    Summary,
    drop_top_fraction,
    geometric_mean,
    percentile,
    ratio,
)
from repro.metrics.throughput import ThroughputResult
from repro.operators.invertible import SumOperator
from tests.conftest import int_stream

from benchmarks.paper.measures import (
    LatencyRecorder,
    measure_step_latencies,
    measure_throughput,
)


class TestStats:
    def test_percentile_interpolates(self):
        values = [0, 10, 20, 30]
        assert percentile(values, 0.0) == 0
        assert percentile(values, 1.0) == 30
        assert percentile(values, 0.5) == 15.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_drop_top_fraction(self):
        values = list(range(1000))
        kept = drop_top_fraction(values, 0.01)
        assert len(kept) == 990
        assert max(kept) == 989

    def test_drop_keeps_at_least_one(self):
        assert drop_top_fraction([5], 0.99) == [5]

    def test_summary_categories(self):
        summary = Summary.of([4, 1, 3, 2])
        assert summary.minimum == 1
        assert summary.maximum == 4
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.count == 4

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            Summary.of([])

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)

    def test_ratio_zero_denominator(self):
        assert ratio(5, 0) == math.inf


class TestLatency:
    def test_recorder_collects_per_step(self):
        recorder = measure_step_latencies(
            SlickDequeInv(SumOperator(), 8), int_stream(100, seed=1)
        )
        assert len(recorder.samples_ns) == 100
        assert all(s >= 0 for s in recorder.samples_ns)

    def test_summary_from_recorder(self):
        recorder = LatencyRecorder()
        for sample in (100, 200, 300):
            recorder.record(sample)
        summary = recorder.summary(drop_fraction=0.0)
        assert summary.minimum == 100
        assert summary.maximum == 300


class TestThroughput:
    def test_measures_positive_rate(self):
        result = measure_throughput(
            lambda: SlickDequeInv(SumOperator(), 8),
            int_stream(500, seed=2),
        )
        assert result.slides == 500
        assert result.per_second > 0

    def test_drives_multi_query_aggregators_per_slide(self):
        result = measure_throughput(
            lambda: SlickDequeInvMulti(SumOperator(), [4, 8]),
            int_stream(300, seed=3),
        )
        assert result.slides == 300
        recorder = measure_step_latencies(
            SlickDequeInvMulti(SumOperator(), [4, 8]), int_stream(50, seed=4)
        )
        assert len(recorder.samples_ns) == 50

    def test_zero_seconds_is_infinite(self):
        assert ThroughputResult(10, 0.0).per_second == math.inf


class TestMemory:
    def test_peak_tracks_growth(self):
        stream = int_stream(100, seed=3)
        peak = peak_memory_words(
            RecalcAggregator(SumOperator(), 16), stream
        )
        assert peak == 16

    def test_measure_memory_reports_both(self):
        result = measure_memory(
            lambda: NaiveAggregator(SumOperator(), 16),
            int_stream(50, seed=4),
        )
        assert result.logical_words == 16
        assert result.measured_peak_bytes > 0

    def test_measure_memory_keeps_the_callers_trace(self):
        """An outer tracemalloc session keeps tracing, and its earlier
        peak is not charged to the measured run."""
        tracemalloc.start()
        try:
            outer = bytearray(1 << 20)
            del outer
            result = measure_memory(
                lambda: NaiveAggregator(SumOperator(), 16),
                int_stream(50, seed=4),
            )
            assert tracemalloc.is_tracing()
            assert 0 < result.measured_peak_bytes < 1 << 20
        finally:
            tracemalloc.stop()


class TestOpCount:
    def test_count_ops_per_slide(self):
        result = count_ops(
            lambda op: NaiveAggregator(op, 4),
            SumOperator(),
            int_stream(20, seed=5),
        )
        assert result.slides == 20
        assert result.worst_case == 3  # n - 1

    def test_steady_state_trims_warmup(self):
        result = count_ops(
            lambda op: NaiveAggregator(op, 4),
            SumOperator(),
            int_stream(20, seed=6),
        )
        steady = result.steady_state(8)
        assert steady.slides == 12
        assert steady.amortized == 3.0

    def test_count_ops_single_wrapper(self):
        result = count_ops_single(
            lambda op, window: SlickDequeInv(op, window),
            SumOperator(),
            8,
            int_stream(40, seed=7),
            warmup_slides=16,
        )
        assert result.amortized == 2.0
        assert result.worst_case == 2
