"""Grid execution shared by the experiment modules.

Runs algorithm × window sweeps against the synthetic DEBS12 workload
and collects throughput, operation-count, latency, or memory results,
averaging over the paper's three energy readings ("all the results
were averaged over three independent runs ... aggregating three
different energy readings", Section 5.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.datasets.debs12 import debs12_array
from repro.experiments.config import ExperimentConfig
from repro.metrics.stats import geometric_mean
from repro.metrics.throughput import measure_single_query
from repro.operators.registry import get_operator
from repro.registry import get_algorithm

#: {algorithm: {window: value-or-None}} — the shape report.series_table eats.
Series = Dict[str, Dict[int, Optional[float]]]


def workload(
    config: ExperimentConfig, length: Optional[int] = None
) -> List[List[float]]:
    """The three energy-reading streams used by every experiment."""
    size = length if length is not None else config.stream_length
    return [
        debs12_array(size, reading=r, seed=config.seed) for r in range(3)
    ]


def sweep_single_throughput(
    operator_name: str,
    algorithms: Sequence[str],
    config: ExperimentConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> Series:
    """Figs. 10-11 grid: single-query results/second."""
    streams = workload(config)
    series: Series = {name: {} for name in algorithms}
    for window in config.windows:
        for name in algorithms:
            spec = get_algorithm(name)
            rates = []
            for stream in streams:
                result = measure_single_query(
                    lambda: spec.single(
                        get_operator(operator_name), window
                    ),
                    stream,
                    repeats=config.repeats,
                )
                rates.append(result.per_second)
            series[name][window] = geometric_mean(rates)
            if progress is not None:
                progress(f"single {operator_name} w={window} {name}")
    return series


def sweep_multi_throughput(
    operator_name: str,
    algorithms: Sequence[str],
    config: ExperimentConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> Series:
    """Figs. 12-13 grid: max-multi-query plan slides/second.

    Every window ``w`` registers ranges ``1..w`` ("queries calculating
    [the aggregate] over the ranges from 1 to the window size after
    each new tuple", Section 5.2).
    """
    streams = workload(config, config.multi_stream_length)
    series: Series = {name: {} for name in algorithms}
    for window in config.multi_windows:
        ranges = list(range(1, window + 1))
        for name in algorithms:
            spec = get_algorithm(name)
            if spec.multi is None:
                series[name][window] = None
                continue
            if (
                name == "naive"
                and config.naive_multi_cap is not None
                and window > config.naive_multi_cap
            ):
                series[name][window] = None
                continue
            rates = []
            for stream in streams:
                result = measure_single_query(
                    lambda: spec.multi(
                        get_operator(operator_name), ranges
                    ),
                    stream,
                    repeats=config.repeats,
                )
                rates.append(result.per_second)
            series[name][window] = geometric_mean(rates)
            if progress is not None:
                progress(f"multi {operator_name} w={window} {name}")
    return series
