"""Unit tests for the sweep definitions and their derived statements."""

from __future__ import annotations

import dataclasses

import pytest

from repro.registry import available_algorithms

from benchmarks.paper.measures import energy
from benchmarks.paper.sweeps import (
    EXP1,
    EXP2,
    EXP5,
    ExperimentConfig,
    constant_group,
    scaling_factor,
    series,
)


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        windows=(1, 4, 16),
        multi_windows=(1, 4),
        stream_length=300,
        multi_stream_length=150,
        naive_multi_cap=4,
    )


class TestRunner:
    def test_workload_three_readings(self, tiny_config):
        streams = energy(tiny_config.stream_length, tiny_config.seed, 3)
        assert len(streams) == 3
        assert all(len(s) == 300 for s in streams)
        assert streams[0] != streams[1]

    def test_single_sweep_shape(self, tiny_config):
        rates = series(EXP1.run(tiny_config), "sum")
        assert set(rates) == set(available_algorithms())
        for by_window in rates.values():
            assert set(by_window) == {1, 4, 16}
            assert all(v > 0 for v in by_window.values())

    def test_multi_sweep_respects_capabilities_and_caps(
        self, tiny_config
    ):
        rates = series(EXP2.run(tiny_config), "sum")
        assert "twostacks" not in rates
        assert rates["naive"][1] is not None
        assert rates["naive"][4] is not None  # at the cap
        bigger = dataclasses.replace(tiny_config, multi_windows=(8,))
        assert ("sum", "naive", 8) not in EXP2.cases(bigger)
        assert ("sum", "slickdeque", 8) in EXP2.cases(bigger)


class TestExp1Result:
    def test_constant_group_detection(self):
        assert constant_group({
            "flat": {16: 100.0, 64: 95.0, 256: 105.0},
            "fading": {16: 100.0, 64: 20.0, 256: 2.0},
        }) == ["flat"]

    def test_constant_group_ignores_tiny_windows(self):
        # The window-1 outlier is excluded from the comparison.
        assert constant_group({"x": {1: 1000.0, 16: 100.0, 64: 100.0}}) == [
            "x"
        ]

    def test_table_title_names_the_figure(self, tiny_config):
        config = dataclasses.replace(tiny_config, windows=(1,))
        assert "Fig. 10" in EXP1.render(config, {("sum", "a", 1): 1.0}, False)


class TestExp2Result:
    def test_table_title_names_the_figure(self, tiny_config):
        config = dataclasses.replace(tiny_config, multi_windows=(1,))
        assert "Fig. 13" in EXP2.render(config, {("max", "a", 1): 1.0}, False)


class TestExp5Result:
    def test_scaling_factor(self):
        assert scaling_factor({1: 100.0, 8: 25.0}) == 4.0

    def test_run_small(self, tiny_config):
        config = dataclasses.replace(
            tiny_config,
            query_window=8,
            query_counts=(1, 4),
            multi_stream_length=200,
        )
        rates = series(EXP5.run(config), "max")
        assert set(rates) == set(available_algorithms(multi_query=True))
        assert scaling_factor(rates["naive"]) >= 1.0
