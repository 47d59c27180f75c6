"""Unit tests for Cutty stream punctuations (§2.1)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidOperatorError, PlanError
from repro.operators.registry import get_operator
from repro.stream.punctuation import (
    PunctuatedCuttyPipeline,
    Punctuation,
    bandwidth_overhead,
    punctuate,
)
from repro.windows.query import Query
from tests import oracle
from tests.conftest import int_stream


class TestPunctuate:
    def test_markers_at_window_starts(self):
        # Range 7, slide 3: windows start after positions ≡ 2 (mod 3).
        stream = list(punctuate(range(9), [Query(7, 3)]))
        markers = [e.position for e in stream
                   if isinstance(e, Punctuation)]
        assert markers == [2, 5, 8]

    def test_markers_deduplicated_across_queries(self):
        queries = [Query(4, 2), Query(8, 2)]  # same start phase
        stream = list(punctuate(range(8), queries))
        markers = [e for e in stream if isinstance(e, Punctuation)]
        assert len(markers) == 4

    def test_values_pass_through_in_order(self):
        stream = list(punctuate([10, 20, 30], [Query(2, 1)]))
        values = [e for e in stream if not isinstance(e, Punctuation)]
        assert values == [10, 20, 30]

    def test_requires_queries(self):
        with pytest.raises(PlanError):
            list(punctuate([1], []))


class TestBandwidthOverhead:
    def test_counts(self):
        stream = punctuate(range(12), [Query(6, 3)])
        tuples, markers, overhead = bandwidth_overhead(stream)
        assert tuples == 12
        assert markers == 4
        assert overhead == pytest.approx(4 / 16)

    def test_small_windows_cost_more(self):
        """§2.1: punctuations hurt most with many small windows."""
        def overhead_for(slide):
            stream = punctuate(range(60), [Query(slide, slide)])
            return bandwidth_overhead(stream)[2]

        assert overhead_for(1) > overhead_for(4) > overhead_for(10)

    def test_empty_stream(self):
        assert bandwidth_overhead([]) == (0, 0, 0.0)


class TestPunctuatedCuttyPipeline:
    @pytest.mark.parametrize("operator_name", ["sum", "max", "mean"])
    @pytest.mark.parametrize(
        "range_size,slide", [(6, 2), (7, 3), (3, 5), (5, 1), (4, 4)]
    )
    def test_matches_brute_force(self, operator_name, range_size, slide):
        stream = int_stream(90, seed=range_size * 10 + slide)
        query, op = Query(range_size, slide), get_operator(operator_name)
        want = oracle.count_windows(op, [query], stream)
        got = PunctuatedCuttyPipeline(query, op).run(punctuate(stream, [query]))
        assert got == [(position, answer) for position, _, answer in want]

    @pytest.mark.parametrize("operator_name", ["bit_and", "bit_or"])
    @pytest.mark.parametrize(
        "query", [Query(3, 3), Query(1, 5), Query(6, 2)], ids=str
    )
    def test_refuses_what_make_slickdeque_refuses_for_any_shape(
        self, query, operator_name
    ):
        # A window of at most one partial never builds the final
        # aggregator; it used to accept an operator SlickDeque refuses.
        from repro.stream.engine import CuttyPipeline

        for pipeline in (CuttyPipeline, PunctuatedCuttyPipeline):
            with pytest.raises(InvalidOperatorError):
                pipeline(query, get_operator(operator_name))

    def test_consumes_only_markers_it_receives(self):
        query = Query(6, 2)
        stream = int_stream(30, seed=9)
        pipeline = PunctuatedCuttyPipeline(query, get_operator("sum"))
        pipeline.run(punctuate(stream, [query]))
        assert pipeline.punctuations == 15

    def test_agrees_with_locally_computed_cutty(self):
        from repro.stream.engine import CuttyPipeline

        query = Query(9, 4)
        stream = int_stream(80, seed=10)
        local = CuttyPipeline(query, get_operator("max")).run(stream)
        remote = PunctuatedCuttyPipeline(
            query, get_operator("max")
        ).run(punctuate(stream, [query]))
        assert remote == local
