"""Unit tests for experiment config, report rendering, and CLI."""

from __future__ import annotations

import pytest

from benchmarks.paper.cli import main as cli_main
from benchmarks.paper.sweeps import (
    ExperimentConfig,
    memory_windows,
    power_of_two_windows,
)
from benchmarks.paper.report import (
    Table,
    improvement_summary,
    series_table,
)


class TestConfig:
    def test_power_of_two_windows(self):
        assert power_of_two_windows(4) == (1, 2, 4, 8, 16)

    def test_memory_windows_include_non_powers(self):
        sizes = memory_windows(4)
        assert 6 in sizes and 12 in sizes  # 1.5x variants
        assert sizes == tuple(sorted(sizes))

    def test_quick_profile_is_small(self):
        quick = ExperimentConfig.quick()
        default = ExperimentConfig()
        assert quick.stream_length < default.stream_length
        assert max(quick.windows) < max(default.windows)

    def test_paper_profile_is_large(self):
        paper = ExperimentConfig.paper_scale()
        assert max(paper.windows) == 1 << 20
        assert paper.latency_tuples == 1_000_000


class TestReport:
    def test_table_renders_aligned(self):
        table = Table("title", ["a", "bb"])
        table.add_row([1, 2.5])
        table.add_row([None, 1234.0])
        text = table.render()
        assert "title" in text
        assert "-" in text  # None placeholder
        assert "1,234" in text

    def test_series_table_layout(self):
        series = {"x": {1: 10.0, 2: 20.0}, "y": {1: 1.0, 2: None}}
        table = series_table("t", "w", [1, 2], series, ["x", "y"])
        rendered = table.render()
        assert rendered.splitlines()[2].split() == ["w", "x", "y"]

    def test_improvement_summary_wins(self):
        series = {
            "slick": {1: 20.0, 2: 40.0},
            "rival": {1: 10.0, 2: 20.0},
        }
        text = improvement_summary(series, "slick")
        assert "+100%" in text
        assert "0/2" in text

    def test_improvement_summary_lower_is_better(self):
        series = {
            "slick": {1: 5.0},
            "rival": {1: 10.0},
        }
        text = improvement_summary(
            series, "slick", higher_is_better=False
        )
        assert "+100%" in text

    def test_improvement_summary_no_points(self):
        assert "no comparable" in improvement_summary({"slick": {}},
                                                      "slick")


class TestCli:
    def test_table1_runs(self, capsys):
        assert cli_main(["table1", "--window", "16", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "slickdeque" in out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["exp9"])
