"""Unit tests for compatible-operator sharing (§2.3)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidOperatorError
from repro.operators.registry import get_operator
from repro.windows.compatibility import (
    AcqSpec,
    CompatibleSharedEngine,
    build_sharing_plan,
    distributive_components,
)
from repro.windows.query import Query
from tests import oracle
from tests.conftest import int_stream


class TestDecomposition:
    def test_plain_operator_is_its_own_component(self):
        components = distributive_components(get_operator("sum"))
        assert [c.name for c in components] == ["sum"]

    def test_mean_decomposes_into_sum_and_count(self):
        components = distributive_components(get_operator("mean"))
        assert [c.name for c in components] == ["sum", "count"]

    def test_range_decomposes_into_max_and_min(self):
        components = distributive_components(get_operator("range"))
        assert [c.name for c in components] == ["max", "min"]


class TestSharingPlan:
    def test_paper_example_sum_count_average(self):
        """§2.3: "Sum, Count and Average can share results"."""
        specs = [
            AcqSpec(Query(8, 2), "sum"),
            AcqSpec(Query(8, 2), "count"),
            AcqSpec(Query(8, 2), "mean"),
        ]
        plan = build_sharing_plan(specs)
        # Three queries, but only two component engines: sum + count.
        assert set(plan.components) == {"sum", "count"}
        assert plan.shared_component_count == 2
        assert plan.unshared_component_count == 4

    def test_stddev_extends_the_same_group(self):
        specs = [
            AcqSpec(Query(8, 2), "mean"),
            AcqSpec(Query(8, 2), "stddev"),
        ]
        plan = build_sharing_plan(specs)
        assert set(plan.components) == {"sum", "count",
                                        "sum_of_squares"}

    def test_describe_lists_readers(self):
        plan = build_sharing_plan([AcqSpec(Query(4, 2), "mean")])
        assert "mean[q4/2] <- [sum, count]" in plan.describe()


class TestCompatibleSharedEngine:
    def expected(self, specs, stream):
        return sorted(
            (
                (position, spec.label, answer)
                for spec in specs
                for position, _, answer in oracle.count_windows(
                    get_operator(spec.operator_name), [spec.query], stream
                )
            ),
            key=lambda row: row[:2],
        )

    def run_engine(self, specs, stream):
        engine = CompatibleSharedEngine(specs)
        got = [
            (position, spec.label, answer)
            for position, spec, answer in engine.run(stream)
        ]
        return sorted(got, key=lambda row: (row[0], row[1]))

    def test_sum_count_mean_share(self):
        stream = int_stream(120, seed=31)
        specs = [
            AcqSpec(Query(8, 2), "sum"),
            AcqSpec(Query(8, 2), "count"),
            AcqSpec(Query(8, 2), "mean"),
        ]
        assert self.run_engine(specs, stream) == self.expected(
            specs, stream
        )

    def test_heterogeneous_windows(self):
        stream = int_stream(150, seed=32)
        specs = [
            AcqSpec(Query(6, 2), "sum"),
            AcqSpec(Query(8, 4), "mean"),
            AcqSpec(Query(12, 4), "variance"),
        ]
        got = self.run_engine(specs, stream)
        expected = self.expected(specs, stream)
        assert [(p, l) for p, l, _ in got] == [
            (p, l) for p, l, _ in expected
        ]
        for (_, _, a), (_, _, b) in zip(got, expected):
            assert a == pytest.approx(b)

    def test_range_shares_max_and_min_engines(self):
        stream = int_stream(100, seed=33)
        specs = [
            AcqSpec(Query(8, 2), "max"),
            AcqSpec(Query(8, 2), "min"),
            AcqSpec(Query(8, 2), "range"),
        ]
        engine = CompatibleSharedEngine(specs)
        assert engine.plan.shared_component_count == 2
        got = [
            (position, spec.label, answer)
            for position, spec, answer in engine.run(stream)
        ]
        assert sorted(got, key=lambda r: (r[0], r[1])) == self.expected(
            specs, stream
        )

    def test_empty_specs_rejected(self):
        with pytest.raises(InvalidOperatorError):
            CompatibleSharedEngine([])
