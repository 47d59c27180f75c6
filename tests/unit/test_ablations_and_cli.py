"""Unit tests for the ablation studies and the extended CLI."""

from __future__ import annotations

import pytest

from repro.experiments import ablations
from repro.experiments.cli import main as cli_main


class TestChunkSizeStudy:
    def test_sqrt_row_is_the_minimum(self):
        table = ablations.chunk_size_study(window=64)
        by_chunk = {
            int(row[0]): float(row[1].replace(",", ""))
            for row in table.rows
        }
        assert by_chunk[8] == min(by_chunk.values())  # √64 = 8

    def test_every_row_at_least_2n(self):
        table = ablations.chunk_size_study(window=64)
        for row in table.rows:
            assert float(row[1].replace(",", "")) >= 2 * 64


class TestSlicingStudy:
    def test_orders_partial_counts(self):
        table = ablations.slicing_study()
        by_technique = {row[0]: row for row in table.rows}
        panes = int(by_technique["panes"][2])
        pairs = int(by_technique["pairs"][2])
        cutty = int(by_technique["cutty"][2])
        assert panes >= pairs >= cutty

    def test_only_cutty_pays_punctuations(self):
        table = ablations.slicing_study()
        for row in table.rows:
            markers = int(row[3])
            if row[0] == "cutty":
                assert markers > 0
            else:
                assert markers == 0


class TestAdversarialStudy:
    def test_shapes_and_bounds(self):
        table = ablations.adversarial_study(window=32)
        by_shape = {row[0]: row for row in table.rows}
        assert float(by_shape["random"][1]) < 2.0
        assert int(by_shape["deque-filler"][2]) >= 31
        assert int(by_shape["descending"][3]) == 32
        assert int(by_shape["ascending"][3]) == 1


class TestSharingStudy:
    def test_study_reports_both_configurations(self):
        table = ablations.sharing_study(tuples=400)
        rows = {row[0]: row for row in table.rows}
        shared = rows["max x5 ACQs, shared"]
        per_query = rows["max x5 ACQs, per-query engines"]
        assert shared[2] == per_query[2]  # identical answer counts
        # Wall-clock belongs to the report; a sub-millisecond run can
        # format to "0.000", so only non-negativity is stable.
        assert float(shared[1]) >= 0

    def test_sharing_saves_aggregate_operations(self):
        """The deterministic core of §2.3: shared plans do less ⊕ work.

        Wall-clock speedups (≈3.6x idle, see EXPERIMENTS.md) flake
        under CPU contention; operation counts never do.
        """
        from repro.operators.instrumented import CountingOperator
        from repro.operators.registry import get_operator
        from repro.stream.engine import StreamEngine
        from repro.windows.query import Query
        from tests.conftest import int_stream

        stream = int_stream(400, seed=3)
        queries = [Query(r, 4) for r in (8, 16, 32, 64, 128)]
        ops = {}
        for label, engine_sets in (
            ("shared", [queries]),
            ("per-query engines", [[query] for query in queries]),
        ):
            counting = CountingOperator(get_operator("max"))
            for acqs in engine_sets:
                StreamEngine(acqs, counting).run(stream)
            ops[label] = counting.ops
        assert ops["shared"] < ops["per-query engines"]


class TestCli:
    def test_exp5_subcommand(self, capsys, monkeypatch):
        from repro.experiments import exp5_query_scaling

        monkeypatch.setattr(
            exp5_query_scaling,
            "main",
            lambda config: "EXP5-STUB",
        )
        assert cli_main(["exp5", "--scale", "quick"]) == 0
        assert "EXP5-STUB" in capsys.readouterr().out

    def test_validate_subcommand(self, capsys, monkeypatch):
        from repro.experiments import validate

        monkeypatch.setattr(
            validate, "main", lambda quick: f"VALIDATE(quick={quick})"
        )
        assert cli_main(["validate", "--scale", "quick"]) == 0
        assert "VALIDATE(quick=True)" in capsys.readouterr().out

    def test_chart_flag(self, capsys, monkeypatch):
        from repro.experiments import exp1_throughput

        captured = {}

        def fake_main(config, chart=False):
            captured["chart"] = chart
            return "EXP1-STUB"

        monkeypatch.setattr(exp1_throughput, "main", fake_main)
        assert cli_main(["exp1", "--chart"]) == 0
        assert captured["chart"] is True

    def test_ablations_subcommand(self, capsys, monkeypatch):
        monkeypatch.setattr(ablations, "main", lambda: "ABL-STUB")
        assert cli_main(["ablations"]) == 0
        assert "ABL-STUB" in capsys.readouterr().out


def test_main_returns_report_sections():
    report = ablations.slicing_study().render()
    assert "Ablation: slicing technique" in report
