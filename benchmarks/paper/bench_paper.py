"""Every paper sweep case under pytest-benchmark, at the quick scale.

One benchmark per sweep × case (operator, algorithm, point), timing the
same measure the CLI report runs (``sweeps.py``).  ``make bench`` runs
them with ``--benchmark-only``; CI runs them with
``--benchmark-disable``, which executes each case once, so a broken
sweep fails.
"""

from __future__ import annotations

import pytest

from benchmarks.paper.sweeps import SWEEPS, ExperimentConfig

CONFIG = ExperimentConfig.quick()

CASES = [
    pytest.param(
        sweep, case, id="-".join(str(part) for part in (sweep.name, *case))
    )
    for sweep in SWEEPS
    for case in sweep.cases(CONFIG)
]


@pytest.mark.parametrize("sweep, case", CASES)
def test_sweep_case(benchmark, sweep, case):
    """Time one case's measure; it must produce a value."""
    value = benchmark(sweep.measure, CONFIG, *case)
    benchmark.extra_info["sweep"] = sweep.name
    benchmark.extra_info["value"] = repr(value)
    assert value is not None
