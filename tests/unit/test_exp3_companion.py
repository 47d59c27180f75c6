"""Unit tests for the Exp 3 spike-structure companion table."""

from __future__ import annotations

import dataclasses

from benchmarks.paper.sweeps import SPIKES, ExperimentConfig


def test_companion_table_shape_and_claims():
    config = ExperimentConfig.quick()  # window 32, 256 slides
    rows = {name: value for (_, name, _), value in SPIKES.run(config).items()}
    assert set(rows) == {
        "naive", "flatfat", "bint", "flatfit", "twostacks", "daba",
        "slickdeque",
    }
    # The flip/reset algorithms are flagged periodic with ~n period.
    assert rows["twostacks"][1].periodic
    assert rows["twostacks"][1].period == 32
    assert rows["flatfit"][1].periodic
    assert rows["flatfit"][1].period in (32, 33)
    # The flat algorithms have no spikes at all.
    for name in ("naive", "flatfat", "daba", "slickdeque"):
        assert not rows[name][1].periodic, name
        assert rows[name][1].period is None, name
    # SlickDeque (Inv) is exactly 2/2.
    assert rows["slickdeque"][0].amortized == 2.0
    assert rows["slickdeque"][0].worst_case == 2


def test_companion_table_renders():
    config = dataclasses.replace(
        ExperimentConfig.quick(), spike_window=16, op_slides=256
    )
    text = SPIKES.report(config)
    assert "spike period" in text
    assert "slickdeque" in text
