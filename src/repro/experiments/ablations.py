"""Ablation studies for the design choices DESIGN.md calls out.

Four studies, each isolating one mechanism:

* **chunk-size** — the §4.2 space formula ``2n + 4k + 4n/k`` over the
  chunk-size parameter, on a worst-case (deque-filling) input;
* **sharing** — one shared plan vs one engine per ACQ over overlapping
  ACQ sets (§2.3, Example 1), plus operator-level component sharing;
* **slicing** — Panes vs Pairs vs Cutty partial counts and Cutty's
  punctuation bandwidth overhead (§2.1);
* **adversarial** — SlickDeque (Non-Inv) occupancy and per-slide op
  profiles across input shapes (§4.1).

Each study returns a rendered :class:`~repro.experiments.report.Table`
and is also exercised as a pytest-benchmark in ``benchmarks/``.
"""

from __future__ import annotations

import math
import time

from repro.core.slickdeque_noninv import (
    ChunkedSlickDequeNonInv,
    SlickDequeNonInv,
)
from repro.datasets.adversarial import deque_filler, descending_stream
from repro.datasets.debs12 import debs12_array
from repro.datasets.synthetic import materialise, uniform
from repro.experiments.report import Table
from repro.metrics.opcount import count_ops
from repro.operators.noninvertible import MaxOperator
from repro.operators.registry import get_operator
from repro.stream.engine import StreamEngine
from repro.stream.punctuation import bandwidth_overhead, punctuate
from repro.windows.compatibility import AcqSpec, CompatibleSharedEngine
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query
from repro.windows.slicing import edges_for


def chunk_size_study(window: int = 1024) -> Table:
    """Peak words vs chunk size on a permanently-full deque."""
    stream = list(descending_stream(3 * window))
    optimum = max(1, math.isqrt(window))
    table = Table(
        f"Ablation: chunk size k on a full deque (n={window}; "
        f"§4.2 optimum k=√n={optimum})",
        ["chunk size", "peak words", "vs 2n", "chunks at peak"],
    )
    for chunk_size in (1, 4, optimum // 2 or 1, optimum,
                       4 * optimum, window):
        aggregator = ChunkedSlickDequeNonInv(
            MaxOperator(), window, chunk_size=chunk_size
        )
        peak_words = 0
        peak_chunks = 0
        for value in stream:
            aggregator.push(value)
            words = aggregator.memory_words()
            if words > peak_words:
                peak_words = words
                peak_chunks = aggregator._nodes.chunk_count
        table.add_row(
            [chunk_size, peak_words, peak_words / (2 * window),
             peak_chunks]
        )
    return table


def sharing_study(tuples: int = 4000) -> Table:
    """One shared plan vs one engine per ACQ, and component sharing."""
    stream = debs12_array(tuples, seed=2012)
    table = Table(
        "Ablation: plan sharing (§2.3) — wall-clock per configuration",
        ["configuration", "seconds", "answers", "speedup vs unshared"],
    )
    queries = [Query(r, 4) for r in (8, 16, 32, 64, 128)]
    timings = {}
    for label, engine_sets in (
        ("per-query engines", [[query] for query in queries]),
        ("shared", [queries]),
    ):
        engines = [
            StreamEngine(acqs, get_operator("max")) for acqs in engine_sets
        ]
        started = time.perf_counter()
        for engine in engines:
            engine.run(stream)
        timings[label] = time.perf_counter() - started
        table.add_row(
            [
                f"max x5 ACQs, {label}",
                timings[label],
                sum(engine.answers_emitted for engine in engines),
                timings["per-query engines"] / timings[label],
            ]
        )
    # Operator-level sharing: Sum/Count/Mean/Variance from 3 engines.
    specs = [
        AcqSpec(Query(64, 4), "sum"),
        AcqSpec(Query(64, 4), "count"),
        AcqSpec(Query(64, 4), "mean"),
        AcqSpec(Query(64, 4), "variance"),
    ]
    shared_engine = CompatibleSharedEngine(specs)
    started = time.perf_counter()
    answers = sum(1 for _ in shared_engine.run(stream))
    shared_seconds = time.perf_counter() - started
    started = time.perf_counter()
    unshared_answers = 0
    for spec in specs:
        engine = StreamEngine(
            [spec.query], get_operator(spec.operator_name)
        )
        engine.run(stream)
        unshared_answers += engine.answers_emitted
    unshared_seconds = time.perf_counter() - started
    table.add_row(
        [
            f"sum/count/mean/var, "
            f"{shared_engine.plan.shared_component_count} components",
            shared_seconds,
            answers,
            unshared_seconds / shared_seconds,
        ]
    )
    return table


def slicing_study() -> Table:
    """Partials per cycle and punctuation overhead per technique."""
    queries = [Query(45, 6), Query(30, 10)]
    table = Table(
        "Ablation: slicing technique (§2.1) for ACQs "
        + ", ".join(q.name for q in queries),
        ["technique", "cycle", "partials/cycle", "punctuations/cycle",
         "bandwidth overhead"],
    )
    for technique in ("panes", "pairs"):
        plan = build_shared_plan(queries, technique)
        table.add_row(
            [technique, plan.cycle_length, plan.partials_per_cycle, 0,
             0.0]
        )
    cycle, edges = edges_for("cutty", queries)
    probe = list(punctuate([0] * cycle, queries))
    _, markers, overhead = bandwidth_overhead(probe)
    table.add_row(["cutty", cycle, len(edges), markers, overhead])
    return table


def adversarial_study(window: int = 256) -> Table:
    """SlickDeque (Non-Inv) profiles across input shapes (§4.1)."""
    slides = 4 * window
    shapes = {
        "ascending": list(range(slides)),
        "random": materialise(uniform(slides, seed=99)),
        "descending": list(range(slides, 0, -1)),
        "deque-filler": list(deque_filler(window, cycles=4)),
    }
    table = Table(
        f"Ablation: input shape for SlickDeque (Non-Inv), n={window}",
        ["input", "amortized ops", "worst slide ops",
         "final occupancy"],
    )
    for name, stream in shapes.items():
        profile = count_ops(
            lambda op: SlickDequeNonInv(op, window),
            MaxOperator(),
            stream,
        )
        aggregator = SlickDequeNonInv(MaxOperator(), window)
        for value in stream:
            aggregator.push(value)
        table.add_row(
            [name, profile.amortized, profile.worst_case,
             aggregator.occupancy]
        )
    return table


def main() -> str:
    """Run all four studies; return the rendered report."""
    return "\n\n".join(
        [
            chunk_size_study().render(),
            sharing_study().render(),
            slicing_study().render(),
            adversarial_study().render(),
        ]
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(main())
