"""Unit tests for the parametric ACQ workload generators."""

from __future__ import annotations

from benchmarks.paper.workloads import (
    heavy_tailed_ranges,
    ladder_ranges,
    tenant_queries,
    uniform_ranges,
)


class TestUniformRanges:
    def test_distinct_sorted_within_bounds(self):
        ranges = uniform_ranges(10, 100, seed=1)
        assert len(set(ranges)) == 10
        assert ranges == sorted(ranges)
        assert all(1 <= r <= 100 for r in ranges)

    def test_saturates_to_all_ranges(self):
        assert uniform_ranges(200, 16) == list(range(1, 17))

    def test_deterministic(self):
        assert uniform_ranges(5, 50, seed=7) == uniform_ranges(
            5, 50, seed=7
        )
        assert uniform_ranges(5, 50, seed=7) != uniform_ranges(
            5, 50, seed=8
        )


class TestLadderRanges:
    def test_powers(self):
        assert ladder_ranges(5) == [1, 2, 4, 8, 16]
        assert ladder_ranges(3, base=10) == [1, 10, 100]


class TestHeavyTailedRanges:
    def test_mostly_short(self):
        # Distinctness spreads the small values out, but the bulk of a
        # Pareto(1.5) draw still lands far below the cap.
        ranges = heavy_tailed_ranges(30, 10_000, seed=2)
        short = sum(1 for r in ranges if r <= 100)
        assert short >= 2 * len(ranges) // 3

    def test_bounds_and_uniqueness(self):
        ranges = heavy_tailed_ranges(20, 100, seed=3)
        assert len(set(ranges)) == len(ranges)
        assert all(1 <= r <= 100 for r in ranges)


class TestTenantQueries:
    def test_valid_acqs(self):
        queries = tenant_queries(12, 500, seed=4)
        assert queries
        for query in queries:
            assert 1 <= query.slide <= query.range_size
            assert query.name.startswith("tenant")

    def test_deterministic(self):
        a = tenant_queries(8, 100, seed=5)
        b = tenant_queries(8, 100, seed=5)
        assert a == b

    def test_usable_in_a_shared_plan(self):
        from repro.windows.plan import build_shared_plan

        queries = tenant_queries(6, 64, seed=6)
        plan = build_shared_plan(queries, "pairs")
        assert plan.w_size >= max(q.range_size for q in queries) // (
            max(q.slide for q in queries)
        )
