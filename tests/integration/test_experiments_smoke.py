"""Integration: the paper harness runs end-to-end (quick scale).

Each figure/table sweep executes on a seconds-scale configuration and
its qualitative shape claims hold — the fast companion to the full
``make experiments`` run recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.registry import available_algorithms

from benchmarks.paper.sweeps import (
    EXP1,
    EXP2,
    EXP3,
    EXP4,
    TABLE1,
    ExperimentConfig,
    series,
)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.quick()


def _measure(sweep, config, operator_name):
    """One operator's cases of a sweep (the report runs both)."""
    return {
        case: sweep.measure(config, *case)
        for case in sweep.cases(config)
        if case[0] == operator_name
    }


def test_table1_measured_vs_theory(config):
    config = dataclasses.replace(config, table1_window=32)
    results = TABLE1.run(config)
    rendered = TABLE1.render(config, results, False)
    assert "slickdeque" in rendered
    # The load-bearing cells:
    assert results[("sum", "slickdeque", 32)].single.amortized == 2.0
    assert results[("sum", "naive", 32)].single.amortized == 31.0
    assert results[("sum", "slickdeque", 32)].multi.amortized == 64.0


def test_exp1_shapes(config):
    rates = series(_measure(EXP1, config, "sum"), "sum")
    # Every algorithm produced a rate at every window.
    for name, by_window in rates.items():
        assert set(by_window) == set(config.windows), name
        assert all(v and v > 0 for v in by_window.values())
    # SlickDeque (Inv) leads at the largest window.
    largest = max(config.windows)
    slick = rates["slickdeque"][largest]
    assert all(
        slick >= by_window[largest]
        for name, by_window in rates.items()
        if name != "slickdeque"
    )


def test_exp2_capabilities(config):
    rates = series(_measure(EXP2, config, "max"), "max")
    assert "twostacks" not in rates
    assert "daba" not in rates
    largest = max(config.multi_windows)
    slick = rates["slickdeque"][largest]
    for name, by_window in rates.items():
        if name != "slickdeque" and by_window.get(largest) is not None:
            assert slick > by_window[largest], name


def test_exp2_naive_cap_respected():
    config = ExperimentConfig(
        multi_windows=(2, 8),
        multi_stream_length=100,
        naive_multi_cap=4,
    )
    rates = series(EXP2.run(config), "sum")
    assert rates["naive"].get(2) is not None
    assert rates["naive"].get(8) is None
    assert rates["slickdeque"].get(8) is not None


def test_exp3_produces_all_categories(config):
    results = EXP3.run(config)
    for operator_name in ("sum", "max"):
        summaries = series(results, operator_name)
        assert set(summaries) == set(available_algorithms())
        for by_window in summaries.values():
            summary = by_window[config.latency_window]
            assert summary.minimum <= summary.median <= summary.maximum
    assert "p25" in EXP3.render(config, results, False)


def test_exp4_grouping(config):
    words = series(_measure(EXP4, config, "sum"), "sum")
    for window in config.memory_sizes:
        if window < 4:
            continue
        naive = words["naive"][window]
        assert words["slickdeque"][window] <= naive + 1
        assert words["flatfat"][window] >= 2 * naive
        assert words["twostacks"][window] == 2 * naive
    # Non-inv SlickDeque beats Naive at large windows on real data —
    # quick-config windows are too small for the deque advantage, so
    # the gain check runs directly at window 1024 (Naive costs exactly
    # its window).
    window = 1024
    assert EXP4.measure(config, "max", "slickdeque", window) < window / 2
