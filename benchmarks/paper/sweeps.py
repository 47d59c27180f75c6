"""The paper's evaluation (Section 5), each artifact defined once.

A :class:`Sweep` is one table or figure: the cases it measures at a
scale — ``(operator, algorithm, point)``, where the point is a window,
a query count or an ablation variant — the measure that turns one case
into a value on the artifact's stream recipe, and the renderer that
turns the measured cases into its report section.  The CLI
(:mod:`benchmarks.paper.cli`) measures and renders every case,
``bench_paper.py`` times each case under pytest-benchmark, and the
claims validator (:mod:`benchmarks.paper.validate`) measures the cases
its claims name.  What Fig. N measures is decided here and nowhere
else.

The paper sweeps windows from 1 tuple to 134 million tuples over a
134 M-tuple stream on a C++ platform.  The scales here are sized to
CPython so the default suite finishes in minutes while covering every
regime the paper's figures show (the crossovers it highlights happen at
windows of 4-16 tuples; the constant-vs-log/linear separation is
obvious well before 2^12).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.slickdeque_noninv import ChunkedSlickDequeNonInv
from repro.datasets.adversarial import deque_filler, descending_stream
from repro.metrics.memory import peak_memory_words
from repro.metrics.opcount import OpCountResult, count_ops
from repro.metrics.spikes import SpikeProfile
from repro.metrics.stats import Summary, geometric_mean
from repro.operators.registry import get_operator
from repro.registry import available_algorithms, get_algorithm
from repro.stream.engine import StreamEngine
from repro.stream.punctuation import bandwidth_overhead, punctuate
from repro.windows.compatibility import (
    AcqSpec,
    CompatibleSharedEngine,
    build_sharing_plan,
)
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query
from repro.windows.slicing import edges_for

from benchmarks.paper.measures import (
    energy,
    measure_step_latencies,
    measure_throughput,
    random_stream,
)
from benchmarks.paper.report import (
    Table,
    ascii_chart,
    improvement_summary,
    series_table,
)
from benchmarks.paper.workloads import uniform_ranges

#: Every figure runs the invertible Sum and the non-invertible Max.
OPERATORS = ("sum", "max")

Case = Tuple[str, str, Any]
Results = Dict[Case, Any]
Series = Dict[str, Dict[Any, Optional[float]]]


def power_of_two_windows(max_exponent: int) -> Tuple[int, ...]:
    """Window sizes ``1, 2, 4, ..., 2^max_exponent`` (paper Exps 1-2)."""
    return tuple(1 << e for e in range(max_exponent + 1))


def memory_windows(max_exponent: int) -> Tuple[int, ...]:
    """Powers of two *and* in-between sizes (paper Exp 4 "also included
    window sizes that are not powers of two")."""
    sizes = []
    for e in range(max_exponent + 1):
        sizes.append(1 << e)
        if e >= 2:
            sizes.append((1 << e) + (1 << (e - 1)))  # 1.5 × 2^e
    return tuple(sorted(set(sizes)))


@dataclass(frozen=True)
class ExperimentConfig:
    """The grid of every sweep at one scale.

    Attributes:
        windows: Window sizes of Figs. 10-11.
        multi_windows: Window sizes of Figs. 12-13; Naive is quadratic
            per slide, so this sweep is shorter.
        stream_length: Tuples per Figs. 10-11 measurement.
        multi_stream_length: Tuples per Figs. 12-13 and Exp 5
            measurement.
        latency_window: Fixed window of Fig. 14 (paper: 1024).
        latency_tuples: Stream length of Fig. 14 (paper: first 1 M
            tuples).
        memory_sizes: Window sizes of Fig. 15, including non-powers.
        memory_tuples: Tuples streamed per Fig. 15 measurement (enough
            to pass the largest window and reach steady state).
        seed: DEBS12 dataset seed.
        repeats: Timing repetitions (best-of).
        naive_multi_cap: Largest window Naive runs in Figs. 12-13
            (``None`` = no cap); its O(n²) slides dominate runtime.
        table1_window: Table 1's window (the CLI's ``--window``).
        op_slides: Steady-state slides of the operation-count sweeps
            (Table 1 and the Exp 3 companion).
        spike_window: Window of the Exp 3 companion.
        query_window: Window of Exp 5.
        query_counts: Query counts of Exp 5.
        chunk_window: Window of the chunk-size ablation.
        shape_window: Window of the input-shape ablation.
        sharing_tuples: Stream length of the sharing ablation.
    """

    windows: Tuple[int, ...] = field(
        default_factory=lambda: power_of_two_windows(12)
    )
    multi_windows: Tuple[int, ...] = field(
        default_factory=lambda: power_of_two_windows(8)
    )
    stream_length: int = 20_000
    multi_stream_length: int = 4_000
    latency_window: int = 1024
    latency_tuples: int = 100_000
    memory_sizes: Tuple[int, ...] = field(
        default_factory=lambda: memory_windows(12)
    )
    memory_tuples: int = 20_000
    seed: int = 2012
    repeats: int = 1
    naive_multi_cap: Optional[int] = 256
    table1_window: int = 64
    op_slides: int = 4096
    spike_window: int = 128
    query_window: int = 64
    query_counts: Tuple[int, ...] = power_of_two_windows(6)
    chunk_window: int = 1024
    shape_window: int = 256
    sharing_tuples: int = 4_000

    @staticmethod
    def quick() -> "ExperimentConfig":
        """A seconds-scale configuration for tests and CI."""
        return ExperimentConfig(
            windows=power_of_two_windows(6),
            multi_windows=power_of_two_windows(5),
            stream_length=2_000,
            multi_stream_length=600,
            latency_window=128,
            latency_tuples=5_000,
            memory_sizes=memory_windows(6),
            memory_tuples=2_000,
            naive_multi_cap=64,
            op_slides=256,
            spike_window=32,
            query_window=16,
            query_counts=(1, 4, 16),
            chunk_window=256,
            shape_window=64,
            sharing_tuples=400,
        )

    @staticmethod
    def paper_scale() -> "ExperimentConfig":
        """As close to the paper's sweep as Python wall-clock allows."""
        return ExperimentConfig(
            windows=power_of_two_windows(20),
            multi_windows=power_of_two_windows(10),
            stream_length=200_000,
            multi_stream_length=20_000,
            latency_window=1024,
            latency_tuples=1_000_000,
            memory_sizes=memory_windows(20),
            memory_tuples=100_000,
            repeats=3,
            naive_multi_cap=512,
        )


#: The CLI's ``--scale`` choices.
SCALES: Dict[str, Callable[[], ExperimentConfig]] = {
    "quick": ExperimentConfig.quick,
    "default": ExperimentConfig,
    "paper": ExperimentConfig.paper_scale,
}


@dataclass(frozen=True)
class Sweep:
    """One paper artifact: its cases, its measure, its report section.

    Attributes:
        name: Identifier (pytest-benchmark ids start with it).
        cases: The ``(operator, algorithm, point)`` cases at a scale.
        measure: ``measure(config, operator, algorithm, point)`` — one
            case's value, on the artifact's stream recipe.
        render: ``render(config, results, chart)`` — the section text
            from ``{case: value}`` over every case.
    """

    name: str
    cases: Callable[[ExperimentConfig], List[Case]]
    measure: Callable[[ExperimentConfig, str, str, Any], Any]
    render: Callable[[ExperimentConfig, Results, bool], str]

    def run(self, config: ExperimentConfig) -> Results:
        """Measure every case at ``config``'s scale."""
        return {
            case: self.measure(config, *case)
            for case in self.cases(config)
        }

    def report(self, config: ExperimentConfig, chart: bool = False) -> str:
        """Measure every case and render the section."""
        return self.render(config, self.run(config), chart)


def series(results: Results, operator_name: str) -> Series:
    """``{algorithm: {point: value}}`` for one operator's cases."""
    out: Series = {}
    for (op, name, point), value in results.items():
        if op == operator_name:
            out.setdefault(name, {})[point] = value
    return out


def _series_sections(
    results: Results,
    row_label: str,
    title: Callable[[str], str],
    lines: Callable[[Series], List[str]],
    chart_title: Optional[Callable[[str], str]] = None,
) -> List[str]:
    """Per operator: the point × algorithm table, the artifact's summary
    ``lines``, the ASCII chart when ``chart_title`` is given, a blank."""
    sections = []
    for op in OPERATORS:
        by_algorithm = series(results, op)
        points = list(dict.fromkeys(p for o, _, p in results if o == op))
        sections.append(series_table(
            title(op), row_label, points, by_algorithm, list(by_algorithm)
        ).render())
        sections += lines(by_algorithm)
        if chart_title is not None:
            sections += ["", ascii_chart(by_algorithm, chart_title(op))]
        sections.append("")
    return sections


def _grid(
    algorithms: Sequence[str], points: Sequence[Any]
) -> List[Case]:
    return [
        (op, name, point)
        for op in OPERATORS
        for point in points
        for name in algorithms
    ]


def _op_profile(
    make: Callable[[Any], Any],
    operator_name: str,
    stream: Sequence[Any],
    window: int,
) -> OpCountResult:
    """Steady-state ⊕/⊖ per slide — the paper's own §4.1 metric."""
    return count_ops(make, get_operator(operator_name), stream).steady_state(
        2 * window
    )


# --- Table 1: operations per slide and space, measured (§4.1-4.2) ---

#: Table 1's theoretical single-query entries: (amortized, worst).
THEORY = {
    "naive": ("n-1", "n-1"),
    "flatfat": ("log n", "log n"),
    "bint": ("~2 log n", "~2 log n"),
    "flatfit": ("3", "n"),
    "twostacks": ("3", "n"),
    "daba": ("5", "8"),
    "slickdeque": ("2 (inv) / <2 (non-inv)", "2 (inv) / n (non-inv)"),
}


@dataclass(frozen=True)
class Table1Cell:
    """One algorithm × operator of Table 1."""

    single: OpCountResult
    multi: Optional[OpCountResult]  # ranges 1..n; None without support
    space: int  # memory_words() once the window is full


def _table1_measure(
    config: ExperimentConfig, operator_name: str, name: str, window: int
) -> Table1Cell:
    stream = random_stream(config.op_slides + 2 * window, 7)
    spec = get_algorithm(name)
    single = _op_profile(
        lambda op: spec.single(op, window), operator_name, stream, window
    )
    multi = None
    if spec.multi is not None:
        ranges = list(range(1, window + 1))
        multi = _op_profile(
            lambda op: spec.multi(op, ranges), operator_name, stream, window
        )
    aggregator = spec.single(get_operator(operator_name), window)
    for value in stream:
        aggregator.push(value)
    return Table1Cell(single, multi, aggregator.memory_words())


def _table1_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    table = Table(
        f"Table 1 (measured, window n={config.table1_window}, random "
        "input): aggregate operations per slide and space words",
        ["algorithm", "sum amort", "sum worst", "max amort", "max worst",
         "multi-sum amort", "multi-max amort", "space(sum)",
         "theory amort/worst"],
    )
    cells = {(op, name): cell for (op, name, _), cell in results.items()}
    for name in series(results, "sum"):
        total, peak = cells[("sum", name)], cells[("max", name)]
        theory = THEORY.get(name, ("?", "?"))
        table.add_row([
            name,
            total.single.amortized,
            total.single.worst_case,
            peak.single.amortized,
            peak.single.worst_case,
            total.multi.amortized if total.multi else None,
            peak.multi.amortized if peak.multi else None,
            total.space,
            f"{theory[0]} / {theory[1]}",
        ])
    return table.render()


TABLE1 = Sweep(
    "table1",
    lambda config: _grid(available_algorithms(), [config.table1_window]),
    _table1_measure,
    _table1_render,
)


# --- Figs. 10-13: single- and max-multi-query throughput (Exps 1-2) ---


def _rate(
    config: ExperimentConfig,
    make: Callable[[Any], Any],
    operator_name: str,
    length: int,
) -> float:
    """Slides/second, geometric mean over the three energy readings
    ("all the results were averaged over three independent runs ...
    aggregating three different energy readings", §5.2)."""
    return geometric_mean([
        measure_throughput(
            lambda: make(get_operator(operator_name)), stream, config.repeats
        ).per_second
        for stream in energy(length, config.seed, 3)
    ])


def constant_group(by_algorithm: Series, tolerance: float = 4.0) -> List[str]:
    """Algorithms whose throughput is window-size independent.

    An algorithm is "constant" when its smallest-window rate is within
    ``tolerance``× of its largest-window rate — the paper's group (1)
    of Fig. 10.  Only windows ≥ 16 are compared, since tiny windows are
    dominated by fixed overheads.
    """
    constant = []
    for name, by_window in by_algorithm.items():
        points = [
            rate
            for window, rate in sorted(by_window.items())
            if rate is not None and window >= 16
        ]
        if len(points) >= 2 and max(points) <= tolerance * min(points):
            constant.append(name)
    return constant


def _figure_render(
    figures: Dict[str, str],
    what: str,
    note: str,
    lines: Callable[[Series], List[str]],
) -> Callable[[ExperimentConfig, Results, bool], str]:
    """Figs. 10-13: the series table, ``lines`` and the shape chart."""
    def render(config: ExperimentConfig, results: Results, chart: bool) -> str:
        def shape(op: str) -> str:
            return f"{figures[op].split(' (')[0]} (shape): {what}, {op}"

        return "\n".join(_series_sections(
            results,
            "window",
            lambda op: f"{figures[op]}: {what}, {op} — {note}",
            lines,
            shape if chart else None,
        ))

    return render


#: Figs. 10-11: "a query calculating the invertible aggregation Sum
#: [Fig. 10] / the non-invertible aggregation Max [Fig. 11] over the
#: entire window after each new tuple arrival", windows 1 … 2^k.
EXP1 = Sweep(
    "exp1",
    lambda config: _grid(available_algorithms(), config.windows),
    lambda config, op, name, window: _rate(
        config,
        lambda operator: get_algorithm(name).single(operator, window),
        op,
        config.stream_length,
    ),
    _figure_render(
        {"sum": "Fig. 10 (Exp 1a)", "max": "Fig. 11 (Exp 1b)"},
        "single-query throughput",
        "results/second (higher is better)",
        lambda rates: [
            improvement_summary(rates, "slickdeque"),
            "constant-throughput group: " + ", ".join(constant_group(rates)),
        ],
    ),
)

#: Figs. 12-13: "a maximum number of queries calculating Sum / Max
#: value over the ranges from 1 to the window size after each new
#: tuple arrives"; TwoStacks and DABA have no multi-query form.
EXP2 = Sweep(
    "exp2",
    lambda config: [
        case
        for case in _grid(
            available_algorithms(multi_query=True), config.multi_windows
        )
        if not (
            case[1] == "naive"
            and config.naive_multi_cap is not None
            and case[2] > config.naive_multi_cap
        )
    ],
    lambda config, op, name, window: _rate(
        config,
        lambda operator: get_algorithm(name).multi(
            operator, list(range(1, window + 1))
        ),
        op,
        config.multi_stream_length,
    ),
    _figure_render(
        {"sum": "Fig. 12 (Exp 2a)", "max": "Fig. 13 (Exp 2b)"},
        "max-multi-query throughput",
        "plan slides/second (higher is better; '-' = unsupported or "
        "capped)",
        lambda rates: [improvement_summary(rates, "slickdeque")],
    ),
)


# --- Fig. 14: per-answer latency (Exp 3) and its ⊕ structure ---

CATEGORIES = ("min", "p25", "median", "mean", "p75", "max")


def _latency_measure(
    config: ExperimentConfig, operator_name: str, name: str, window: int
) -> Summary:
    aggregator = get_algorithm(name).single(
        get_operator(operator_name), window
    )
    stream = energy(config.latency_tuples, config.seed)[0]
    return measure_step_latencies(aggregator, stream).summary()


def _latency_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    sections: List[str] = []
    for op in OPERATORS:
        if sections:
            sections.append("")
        table = Table(
            f"Fig. 14 (Exp 3): per-answer latency, {op}, "
            f"window={config.latency_window}, {config.latency_tuples} "
            "tuples — nanoseconds (lower is better)",
            ["algorithm", *CATEGORIES],
        )
        maxima = {}
        for (kind, name, _), s in results.items():
            if kind == op:
                table.add_row([name, s.minimum, s.p25, s.median, s.mean,
                               s.p75, s.maximum])
                maxima[name] = s.maximum
        ours, theirs = maxima["slickdeque"], maxima["daba"]
        ratio = theirs / ours if ours else float("inf")
        sections += [
            table.render(),
            f"max-latency spike, DABA / SlickDeque ({op}): {ratio:.2f}x",
        ]
    return "\n".join(sections)


#: Fig. 14: "We fixed our window size at 1024 tuples and ran all
#: algorithms on the first million tuples of the DEBS data set while
#: recording how long it took to return an answer to each query ...
#: We dropped the highest 0.005% latencies from all algorithms as
#: outliers."
EXP3 = Sweep(
    "exp3",
    lambda config: _grid(available_algorithms(), [config.latency_window]),
    _latency_measure,
    _latency_render,
)


def _spikes_measure(
    config: ExperimentConfig, operator_name: str, name: str, window: int
) -> Tuple[OpCountResult, SpikeProfile]:
    spec = get_algorithm(name)
    profile = _op_profile(
        lambda op: spec.single(op, window),
        operator_name,
        random_stream(config.op_slides + 2 * window, 11),
        window,
    )
    return profile, SpikeProfile.of(list(profile.per_slide))


def _spikes_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    table = Table(
        f"Exp 3 companion: per-slide ⊕ structure at window "
        f"{config.spike_window} (the source of each algorithm's "
        "latency spikes)",
        ["algorithm", "amortized ops", "worst slide", "spike period",
         "periodic"],
    )
    for (_, name, _), (profile, spikes) in results.items():
        table.add_row([
            name, profile.amortized, profile.worst_case, spikes.period,
            "yes" if spikes.periodic else "no",
        ])
    return table.render()


#: Why the max-latency spikes happen: each algorithm's per-slide ⊕
#: series, its spike period and its worst slide (§4.1).
SPIKES = Sweep(
    "exp3-companion",
    lambda config: [
        ("sum", name, config.spike_window) for name in available_algorithms()
    ],
    _spikes_measure,
    _spikes_render,
)


# --- Fig. 15: memory requirement (Exp 4) ---


def _memory_measure(
    config: ExperimentConfig, operator_name: str, name: str, window: int
) -> float:
    aggregator = get_algorithm(name).single(
        get_operator(operator_name), window
    )
    length = min(config.memory_tuples, 4 * window + 1000)
    return float(
        peak_memory_words(aggregator, energy(length, config.seed)[0])
    )


def _memory_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    sections = _series_sections(
        results,
        "window",
        lambda op: f"Fig. 15 (Exp 4): peak memory, {op} — logical words "
        "(lower is better)",
        lambda words: [],
        (lambda op: f"Fig. 15 (shape): peak memory, {op} (log-log; lower "
         "is better)") if chart else None,
    )
    words = series(results, "max")
    gains = [
        naive / words["slickdeque"][window]
        for window, naive in words["naive"].items()
        if naive and words["slickdeque"].get(window)
    ]
    if gains:
        sections.append(
            "SlickDeque (Non-Inv) words vs Naive on Max: "
            f"{sum(gains) / len(gains):.1f}x less on average, "
            f"{max(gains):.1f}x at most"
        )
    return "\n".join(sections)


#: Fig. 15 reports peak *logical words* — the §4.2 formulas — in place
#: of the paper's maximum RSS (DESIGN.md, substitutions).
EXP4 = Sweep(
    "exp4",
    lambda config: _grid(available_algorithms(), config.memory_sizes),
    _memory_measure,
    _memory_render,
)


# --- Exp 5 (extension): throughput vs registered query count ---


def _queries_measure(
    config: ExperimentConfig, operator_name: str, name: str, count: int
) -> float:
    ranges = uniform_ranges(
        count, config.query_window, seed=config.seed + count
    )
    spec = get_algorithm(name)
    return measure_throughput(
        lambda: spec.multi(get_operator(operator_name), ranges),
        energy(config.multi_stream_length, config.seed)[0],
        config.repeats,
    ).per_second


def scaling_factor(by_count: Dict[int, Optional[float]]) -> float:
    """Throughput at the fewest queries over throughput at the most.

    Close to 1 means query-count-insensitive; large means the
    algorithm pays per query.
    """
    counts = [count for count, value in by_count.items() if value]
    return by_count[min(counts)] / by_count[max(counts)]


def _queries_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    return "\n".join(_series_sections(
        results,
        "queries",
        lambda op: "Exp 5 (extension): multi-query throughput vs query "
        f"count, {op}, window={config.query_window} — plan slides/second",
        lambda rates: [
            f"throughput q=1 / q={max(config.query_counts)}: slickdeque "
            f"{scaling_factor(rates['slickdeque']):.1f}x, naive "
            f"{scaling_factor(rates['naive']):.1f}x"
        ],
    ))


#: Exp 5 sweeps the *query count* at a fixed window — the multi-tenant
#: axis of §1 — where the paper's Exp 2 fixes it to the window size.
EXP5 = Sweep(
    "exp5",
    lambda config: _grid(
        available_algorithms(multi_query=True), config.query_counts
    ),
    _queries_measure,
    _queries_render,
)


# --- Ablations: the design choices DESIGN.md calls out ---


def _chunk_sizes(window: int) -> Tuple[int, ...]:
    optimum = max(1, math.isqrt(window))
    return (1, 4, optimum // 2 or 1, optimum, 4 * optimum, window)


def _chunk_measure(
    config: ExperimentConfig, operator_name: str, name: str, chunk_size: int
) -> Tuple[int, int]:
    window = config.chunk_window
    aggregator = ChunkedSlickDequeNonInv(
        get_operator(operator_name), window, chunk_size=chunk_size
    )
    peak_words = peak_chunks = 0
    for value in descending_stream(3 * window):
        aggregator.push(value)
        words = aggregator.memory_words()
        if words > peak_words:
            peak_words = words
            peak_chunks = aggregator._nodes.chunk_count
    return peak_words, peak_chunks


def _chunk_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    window = config.chunk_window
    table = Table(
        f"Ablation: chunk size k on a full deque (n={window}; "
        f"§4.2 optimum k=√n={max(1, math.isqrt(window))})",
        ["chunk size", "peak words", "vs 2n", "chunks at peak"],
    )
    for (_, _, chunk_size), (words, chunks) in results.items():
        table.add_row([chunk_size, words, words / (2 * window), chunks])
    return table.render()


#: The §4.2 space formula ``2n + 4k + 4n/k`` over the chunk size, on a
#: descending (deque-filling) input.
CHUNK = Sweep(
    "chunk-size",
    lambda config: [
        ("max", "slickdeque", k) for k in _chunk_sizes(config.chunk_window)
    ],
    _chunk_measure,
    _chunk_render,
)

#: §2.3, Example 1: five overlapping Max ACQs, and Sum/Count/Mean/
#: Variance sharing distributive components.
_SHARED_ACQS = tuple(Query(r, 4) for r in (8, 16, 32, 64, 128))
_COMPONENT_ACQS = tuple(
    AcqSpec(Query(64, 4), name)
    for name in ("sum", "count", "mean", "variance")
)


def _sharing_measure(
    config: ExperimentConfig, operator_name: str, name: str, variant: str
) -> Tuple[float, int]:
    stream = energy(config.sharing_tuples, config.seed)[0]
    if operator_name == "components" and variant == "shared":
        engine = CompatibleSharedEngine(list(_COMPONENT_ACQS))
        started = time.perf_counter()
        answers = sum(1 for _ in engine.run(stream))
        return time.perf_counter() - started, answers
    if operator_name == "components":
        engines = [
            StreamEngine([spec.query], get_operator(spec.operator_name))
            for spec in _COMPONENT_ACQS
        ]
    elif variant == "shared":
        engines = [StreamEngine(list(_SHARED_ACQS), get_operator("max"))]
    else:
        engines = [
            StreamEngine([query], get_operator("max"))
            for query in _SHARED_ACQS
        ]
    started = time.perf_counter()
    for engine in engines:
        engine.run(stream)
    return (
        time.perf_counter() - started,
        sum(engine.answers_emitted for engine in engines),
    )


def _sharing_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    table = Table(
        "Ablation: plan sharing (§2.3) — wall-clock per configuration",
        ["configuration", "seconds", "answers", "speedup vs unshared"],
    )
    unshared, _ = results[("max", "slickdeque", "per-query engines")]
    for variant in ("per-query engines", "shared"):
        seconds, answers = results[("max", "slickdeque", variant)]
        table.add_row([f"max x5 ACQs, {variant}", seconds, answers,
                       unshared / seconds])
    seconds, answers = results[("components", "slickdeque", "shared")]
    separate, _ = results[("components", "slickdeque", "per-operator engines")]
    components = build_sharing_plan(_COMPONENT_ACQS).shared_component_count
    table.add_row([f"sum/count/mean/var, {components} components",
                   seconds, answers, separate / seconds])
    return table.render()


SHARING = Sweep(
    "sharing",
    lambda config: [
        ("max", "slickdeque", "per-query engines"),
        ("max", "slickdeque", "shared"),
        ("components", "slickdeque", "shared"),
        ("components", "slickdeque", "per-operator engines"),
    ],
    _sharing_measure,
    _sharing_render,
)

#: §2.1: a range not divisible by its slide makes Pairs split fragments.
_SLICED_ACQS = (Query(45, 6), Query(30, 10))


def _slicing_measure(
    config: ExperimentConfig, operator_name: str, name: str, technique: str
) -> Tuple[int, int, int, float]:
    queries = list(_SLICED_ACQS)
    if technique == "cutty":
        cycle, edges = edges_for("cutty", queries)
        _, markers, overhead = bandwidth_overhead(
            list(punctuate([0] * cycle, queries))
        )
        return cycle, len(edges), markers, overhead
    plan = build_shared_plan(queries, technique)
    return plan.cycle_length, plan.partials_per_cycle, 0, 0.0


def _slicing_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    table = Table(
        "Ablation: slicing technique (§2.1) for ACQs "
        + ", ".join(query.name for query in _SLICED_ACQS),
        ["technique", "cycle", "partials/cycle", "punctuations/cycle",
         "bandwidth overhead"],
    )
    for (_, _, technique), row in results.items():
        table.add_row([technique, *row])
    return table.render()


#: Panes vs Pairs vs Cutty partials per cycle, and Cutty's punctuation
#: bandwidth overhead.
SLICING = Sweep(
    "slicing",
    lambda config: [
        ("sum", "slickdeque", technique)
        for technique in ("panes", "pairs", "cutty")
    ],
    _slicing_measure,
    _slicing_render,
)


def _shape_stream(shape: str, window: int) -> Sequence[Any]:
    slides = 4 * window
    if shape == "ascending":
        return range(slides)
    if shape == "random":
        return random_stream(slides, 99)
    if shape == "descending":
        return range(slides, 0, -1)
    return list(deque_filler(window, cycles=4))


def _shape_measure(
    config: ExperimentConfig, operator_name: str, name: str, shape: str
) -> Tuple[float, int, int]:
    window = config.shape_window
    stream = _shape_stream(shape, window)
    spec = get_algorithm(name)
    profile = count_ops(
        lambda op: spec.single(op, window), get_operator(operator_name), stream
    )
    aggregator = spec.single(get_operator(operator_name), window)
    for value in stream:
        aggregator.push(value)
    return profile.amortized, profile.worst_case, aggregator.occupancy


def _shape_render(
    config: ExperimentConfig, results: Results, chart: bool
) -> str:
    table = Table(
        "Ablation: input shape for SlickDeque (Non-Inv), "
        f"n={config.shape_window}",
        ["input", "amortized ops", "worst slide ops", "final occupancy"],
    )
    for (_, _, shape), row in results.items():
        table.add_row([shape, *row])
    return table.render()


#: §4.1: SlickDeque (Non-Inv) occupancy and per-slide operations on
#: its best case (ascending), the paper's regime (random), its worst
#: space (descending) and its constructed 1-in-n! worst time.
SHAPES = Sweep(
    "input-shape",
    lambda config: [
        ("max", "slickdeque", shape)
        for shape in ("ascending", "random", "descending", "deque-filler")
    ],
    _shape_measure,
    _shape_render,
)

#: Every artifact, in report order.
SWEEPS = (
    TABLE1, EXP1, EXP2, EXP3, SPIKES, EXP4, EXP5,
    CHUNK, SHARING, SLICING, SHAPES,
)
