"""Unit tests for the ASCII figure renderer."""

from __future__ import annotations

import dataclasses

from benchmarks.paper.report import _assign_glyphs, ascii_chart
from benchmarks.paper.sweeps import EXP1, EXP2, ExperimentConfig


class TestGlyphAssignment:
    def test_prefers_initials(self):
        glyphs = _assign_glyphs(["slickdeque", "naive", "daba"])
        assert glyphs == {
            "slickdeque": "S", "naive": "N", "daba": "D"
        }

    def test_collisions_fall_back_deterministically(self):
        glyphs = _assign_glyphs(["flatfat", "flatfit"])
        assert glyphs["flatfat"] == "F"
        assert glyphs["flatfit"] != "F"
        assert len(set(glyphs.values())) == 2

    def test_exhausted_letters_use_pool(self):
        names = [f"aaaa{i}" for i in range(10)]
        glyphs = _assign_glyphs(names)
        assert len(set(glyphs.values())) == len(names)


class TestAsciiChart:
    SERIES = {
        "flat": {1: 100.0, 16: 100.0, 256: 100.0},
        "fading": {1: 100.0, 16: 10.0, 256: 1.0},
    }

    def test_contains_title_axes_and_legend(self):
        text = ascii_chart(self.SERIES, "my title")
        assert "my title" in text
        assert "F=flat" in text and "=fading" in text
        assert "10^0.0" in text  # x axis start (log10 of window 1)
        assert "window (log)" in text

    def test_flat_series_stays_on_one_row(self):
        text = ascii_chart({"flat": self.SERIES["flat"]}, "t")
        rows_with_f = [
            line for line in text.splitlines() if "F" in line
            and "|" in line
        ]
        assert len(rows_with_f) == 1

    def test_fading_series_spans_rows(self):
        text = ascii_chart({"fading": self.SERIES["fading"]}, "t")
        rows = [
            line for line in text.splitlines()
            if "|" in line and "F" in line.split("|", 1)[1]
        ]
        assert len(rows) >= 3

    def test_collision_marker(self):
        series = {"a": {4: 50.0}, "b": {4: 50.0}, "c": {1: 1.0}}
        text = ascii_chart(series, "t")
        assert "*" in text

    def test_none_and_empty_handled(self):
        text = ascii_chart({"x": {1: None}}, "empty")
        assert "(no data)" in text

    def test_deterministic(self):
        assert ascii_chart(self.SERIES, "t") == ascii_chart(
            self.SERIES, "t"
        )


class TestResultAdapters:
    def test_exp1_and_exp2_titles(self):
        config = dataclasses.replace(
            ExperimentConfig.quick(), windows=(1, 4), multi_windows=(1, 4)
        )
        results = {
            (op, "slickdeque", window): 10.0
            for op in ("sum", "max")
            for window in (1, 4)
        }
        fig10 = EXP1.render(config, results, True)
        assert "Fig. 10 (shape)" in fig10
        fig13 = EXP2.render(config, results, True)
        assert "Fig. 13 (shape)" in fig13
