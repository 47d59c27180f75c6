"""Integration: the extension subsystems composed end-to-end."""

from __future__ import annotations

import pytest

from repro.datasets.debs12 import debs12_events
from repro.operators.registry import get_operator
from repro.windows.compatibility import AcqSpec, CompatibleSharedEngine
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery, TimeWindowEngine

from benchmarks.paper.cli import main as cli_main
from benchmarks.paper.sweeps import (
    CHUNK,
    SHAPES,
    SLICING,
    ExperimentConfig,
)


def test_time_engine_over_debs12_events():
    """Time windows over the 100 Hz sensor stream: a 1 s window holds
    exactly 100 samples, so count and time answers coincide."""
    events = list(debs12_events(1000, seed=7, include_states=False))
    stream = [(e.timestamp, e.energy[0]) for e in events]
    engine = TimeWindowEngine(
        [TimeQuery(1.0, 0.5, name="peak1s")], get_operator("max")
    )
    answers = list(engine.run(stream))
    assert len(answers) >= 19  # 10 s of stream, one answer per 0.5 s
    values = [e.energy[0] for e in events]
    for end_time, _, answer in answers:
        # Events are sampled at exact 10 ms ticks starting at 0.0, so
        # the window [end−1, end) covers samples ⌈100·(end−1)⌉ ... .
        end_index = round(end_time * 100)
        start_index = max(0, end_index - 100)
        expected = max(values[start_index:end_index])
        assert answer == expected


def test_time_engine_equivalent_to_count_engine_on_regular_stream():
    """On a perfectly regular stream, time windows == count windows."""
    from repro.core.multiquery import SharedSlickDeque

    values = [float((i * 31) % 97) for i in range(400)]
    regular = [(i * 0.01, v) for i, v in enumerate(values)]
    time_engine = TimeWindowEngine(
        [TimeQuery(0.5, 0.25)], get_operator("sum"), resolution=0.01
    )
    time_answers = [
        a for t, _, a in time_engine.run(regular) if t <= 4.0
    ]
    count_engine = SharedSlickDeque(
        [Query(50, 25)], get_operator("sum")
    )
    count_answers = [a for _, _, a in count_engine.run(values[:400])]
    assert time_answers == pytest.approx(count_answers[: len(time_answers)])


def test_compatible_engine_on_debs12():
    events = list(debs12_events(600, seed=8, include_states=False))
    values = [e.energy[1] for e in events]
    specs = [
        AcqSpec(Query(100, 50), "mean"),
        AcqSpec(Query(100, 50), "stddev"),
        AcqSpec(Query(200, 100), "sum"),
    ]
    engine = CompatibleSharedEngine(specs)
    # mean+stddev+sum decompose to sum, count, sum_of_squares: 3.
    assert engine.plan.shared_component_count == 3
    answers = list(engine.run(values))
    assert len(answers) == 12 + 12 + 6
    import statistics

    for position, spec, answer in answers:
        window = values[max(0, position - spec.query.range_size):position]
        if spec.operator_name == "mean":
            assert answer == pytest.approx(statistics.mean(window))
        elif spec.operator_name == "stddev":
            assert answer == pytest.approx(statistics.pstdev(window))
        else:
            assert answer == pytest.approx(sum(window))


def test_ablation_studies_produce_expected_shapes():
    config = ExperimentConfig.quick()  # chunk n=256, shape n=64
    chunks = CHUNK.run(config)
    assert "optimum k=√n=16" in CHUNK.render(config, chunks, False)
    # The sqrt-sized chunk row must beat the extreme rows.
    rows = {k: words for (_, _, k), (words, _) in chunks.items()}
    assert rows[16] < rows[1]
    assert rows[16] < rows[256]

    by_technique = {t: row for (_, _, t), row in SLICING.run(config).items()}
    assert by_technique["pairs"][1] < by_technique["panes"][1]
    assert by_technique["cutty"][1] <= by_technique["pairs"][1]
    assert by_technique["cutty"][2] > 0  # punctuations cost

    by_shape = {s: row for (_, _, s), row in SHAPES.run(config).items()}
    assert by_shape["deque-filler"][1] >= 63  # worst slide = n-1
    assert by_shape["ascending"][2] == 1
    assert by_shape["descending"][2] == 64


def test_cli_out_writes_report(tmp_path):
    target = tmp_path / "report.txt"
    assert cli_main(
        ["table1", "--window", "8", "--scale", "quick", "--out",
         str(target)]
    ) == 0
    content = target.read_text()
    assert "Table 1" in content
    assert "slickdeque" in content
