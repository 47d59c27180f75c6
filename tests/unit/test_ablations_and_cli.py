"""Unit tests for the ablation studies and the extended CLI."""

from __future__ import annotations

import dataclasses

from benchmarks.paper import cli, validate
from benchmarks.paper.cli import main as cli_main
from benchmarks.paper.sweeps import (
    CHUNK,
    SHAPES,
    SHARING,
    SLICING,
    ExperimentConfig,
    Sweep,
)

QUICK = ExperimentConfig.quick()


def _stub(text, seen=None):
    """A sweep with no cases whose section is ``text``."""
    def render(config, results, chart):
        if seen is not None:
            seen["chart"] = chart
        return text

    return Sweep("stub", lambda config: [], None, render)


def _stub_claims(monkeypatch, passed):
    """Make the validator report C1 passed and C2 ``passed``."""
    def check_all(quick):
        return [
            validate.Claim("C1", f"quick={quick}", True, "stub"),
            validate.Claim("C2", "second", passed, "stub"),
        ]

    monkeypatch.setattr(cli.validate, "check_all", check_all)


class TestChunkSizeStudy:
    def test_sqrt_row_is_the_minimum(self):
        results = CHUNK.run(dataclasses.replace(QUICK, chunk_window=64))
        by_chunk = {k: words for (_, _, k), (words, _) in results.items()}
        assert by_chunk[8] == min(by_chunk.values())  # √64 = 8

    def test_every_row_at_least_2n(self):
        results = CHUNK.run(dataclasses.replace(QUICK, chunk_window=64))
        for words, _ in results.values():
            assert words >= 2 * 64


class TestSlicingStudy:
    def test_orders_partial_counts(self):
        results = SLICING.run(QUICK)
        by_technique = {t: row for (_, _, t), row in results.items()}
        panes = by_technique["panes"][1]
        pairs = by_technique["pairs"][1]
        cutty = by_technique["cutty"][1]
        assert panes >= pairs >= cutty

    def test_only_cutty_pays_punctuations(self):
        for (_, _, technique), row in SLICING.run(QUICK).items():
            markers = row[2]
            if technique == "cutty":
                assert markers > 0
            else:
                assert markers == 0


class TestAdversarialStudy:
    def test_shapes_and_bounds(self):
        results = SHAPES.run(dataclasses.replace(QUICK, shape_window=32))
        by_shape = {s: row for (_, _, s), row in results.items()}
        assert by_shape["random"][0] < 2.0
        assert by_shape["deque-filler"][1] >= 31
        assert by_shape["descending"][2] == 32
        assert by_shape["ascending"][2] == 1


class TestSharingStudy:
    def test_study_reports_both_configurations(self):
        results = SHARING.run(QUICK)
        shared = results[("max", "slickdeque", "shared")]
        per_query = results[("max", "slickdeque", "per-query engines")]
        assert shared[1] == per_query[1]  # identical answer counts
        # Wall-clock belongs to the report; a sub-millisecond run can
        # format to "0.000", so only non-negativity is stable.
        assert shared[0] >= 0
        rendered = SHARING.render(QUICK, results, False)
        assert "max x5 ACQs, shared" in rendered
        assert "max x5 ACQs, per-query engines" in rendered

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
        monkeypatch.setitem(cli.SECTIONS, "exp5", (_stub("EXP5-STUB"),))
        assert cli_main(["exp5", "--scale", "quick"]) == 0
        assert "EXP5-STUB" in capsys.readouterr().out

    def test_validate_subcommand(self, capsys, monkeypatch):
        _stub_claims(monkeypatch, passed=True)
        assert cli_main(["validate", "--scale", "quick"]) == 0
        captured = capsys.readouterr()
        assert "[PASS]   C1  quick=True" in captured.out
        assert captured.err == ""

    def test_validate_fails_on_a_failed_claim(self, capsys, monkeypatch):
        _stub_claims(monkeypatch, passed=False)
        assert cli_main(["validate", "--scale", "quick"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL]   C2" in captured.out
        assert "failed claims: C2" in captured.err

    def test_all_reports_a_failed_claim_and_exits_0(self, capsys, monkeypatch):
        _stub_claims(monkeypatch, passed=False)
        for name in cli.SECTIONS:
            monkeypatch.setitem(cli.SECTIONS, name, (_stub(name.upper()),))
        assert cli_main(["all", "--scale", "quick"]) == 0
        assert "[FAIL]   C2" in capsys.readouterr().out

    def test_chart_flag(self, capsys, monkeypatch):
        captured = {}
        monkeypatch.setitem(
            cli.SECTIONS, "exp1", (_stub("EXP1-STUB", captured),)
        )
        assert cli_main(["exp1", "--chart"]) == 0
        assert captured["chart"] is True

    def test_ablations_subcommand(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.SECTIONS, "ablations", (_stub("ABL-STUB"),))
        assert cli_main(["ablations"]) == 0
        assert "ABL-STUB" in capsys.readouterr().out


def test_main_returns_report_sections():
    report = SLICING.report(QUICK)
    assert "Ablation: slicing technique" in report
