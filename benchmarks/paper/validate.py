"""Claims validator: programmatic PASS/FAIL for the paper's claims.

``python -m benchmarks.paper.cli validate`` re-measures every checkable
headline claim of the paper on this machine and reports each as PASS
or FAIL with the measured evidence — the reproduction's self-test.
Each claim measures cases of the sweep that defines its table or
figure (:mod:`benchmarks.paper.sweeps`), on that sweep's stream recipe
at the chosen scale.  Where a claim is about wall-clock ratios the
check is directional (who wins), not numeric (the paper's 15 % was
measured on a C++ testbed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

from repro.metrics.complexity_fit import classify_algorithm_time
from repro.metrics.spikes import SpikeProfile
from repro.registry import available_algorithms

from benchmarks.paper.sweeps import (
    EXP1,
    EXP3,
    EXP4,
    SHAPES,
    TABLE1,
    ExperimentConfig,
)

#: Window of the wall-clock ordering claims (Figs. 10, 11 and 15).
LARGE_WINDOW = 1024
#: Window of the max-latency claim: a TwoStacks flip is n operations,
#: so n must put it well above timer noise.
LATENCY_WINDOW = 256


@dataclass(frozen=True)
class Claim:
    """One verified paper claim."""

    identifier: str
    statement: str
    passed: bool
    evidence: str


def check_all(quick: bool = False) -> List[Claim]:
    """Run every claim check at the quick or default scale."""
    config = ExperimentConfig.quick() if quick else ExperimentConfig()
    # The best of three runs per reading shrugs off scheduler contention
    # in the wall-clock orderings; the quick scale keeps one run (its
    # test re-measures a failed ordering once).
    timed = config if quick else replace(config, repeats=3)
    window = config.table1_window
    claims: List[Claim] = []

    def add(identifier: str, statement: str,
            check: Callable[[], Tuple[bool, str]]) -> None:
        passed, evidence = check()
        claims.append(Claim(identifier, statement, passed, evidence))

    cells = {}

    def table1(operator_name: str, name: str):
        key = (operator_name, name)
        if key not in cells:
            cells[key] = TABLE1.measure(config, operator_name, name, window)
        return cells[key]

    def ranking(rates) -> str:
        return ", ".join(
            f"{n}={r:,.0f}/s"
            for n, r in sorted(rates.items(), key=lambda kv: -kv[1])
        )

    # --- Table 1 / §4.1 complexity claims -------------------------------
    def c1():
        profile = table1("sum", "slickdeque").single
        return (
            profile.amortized == 2.0 and profile.worst_case == 2,
            f"amortized={profile.amortized}, worst={profile.worst_case}",
        )
    add("C1", "SlickDeque (Inv) costs exactly 2 ops per slide", c1)

    def c2():
        profile = table1("max", "slickdeque").single
        return (
            profile.amortized < 2.0,
            f"amortized={profile.amortized:.3f}",
        )
    add("C2", "SlickDeque (Non-Inv) amortized ops < 2 on random input",
        c2)

    def c3():
        profile = table1("sum", "daba").single
        return (
            profile.worst_case <= 8,
            f"worst={profile.worst_case}, "
            f"amortized={profile.amortized:.2f}",
        )
    add("C3", "DABA's worst-case slide costs at most 8 ops", c3)

    def c4():
        profile = table1("sum", "twostacks").single
        spikes = SpikeProfile.of(list(profile.per_slide))
        return (
            profile.amortized < 3.5
            and profile.worst_case >= window
            and spikes.periodic
            and spikes.period == window,
            f"amortized={profile.amortized:.2f}, "
            f"worst={profile.worst_case}, period={spikes.period}",
        )
    add("C4", "TwoStacks: amortized 3 with an n-op flip every n slides",
        c4)

    def c5():
        profile = table1("sum", "flatfit").single
        return (
            profile.amortized < 3.5
            and profile.worst_case == window - 1,
            f"amortized={profile.amortized:.2f}, "
            f"worst={profile.worst_case}",
        )
    add("C5", "FlatFIT: amortized 3 with an (n-1)-op window reset", c5)

    def c6():
        amortized, worst, _ = SHAPES.measure(
            config, "max", "slickdeque", "deque-filler"
        )
        return (
            worst >= config.shape_window - 1 and amortized <= 2.0,
            f"worst={worst} on the 1-in-n! input, "
            f"amortized={amortized:.2f}",
        )
    add("C6", "SlickDeque (Non-Inv) worst case n exists but stays "
        "amortized ≤ 2 (§4.1)", c6)

    # --- §4.2 / Fig. 15 space claims ------------------------------------
    def c7():
        words = {
            name: EXP4.measure(config, "sum", name, window)
            for name in ("naive", "slickdeque", "twostacks")
        }
        return (
            words["naive"] == window
            and words["slickdeque"] == window + 1
            and words["twostacks"] == 2 * window,
            f"naive={words['naive']:.0f}, "
            f"slickdeque(inv)={words['slickdeque']:.0f}, "
            f"twostacks={words['twostacks']:.0f}",
        )
    add("C7", "Space: Naive n, SlickDeque (Inv) n+1, TwoStacks 2n",
        c7)

    def c8():
        slick = EXP4.measure(config, "max", "slickdeque", LARGE_WINDOW)
        return (
            slick * 2 < LARGE_WINDOW,
            f"non-inv peak {slick:.0f} words vs naive {LARGE_WINDOW} "
            f"({LARGE_WINDOW / slick:.1f}x less)",
        )
    add("C8", "SlickDeque (Non-Inv) uses ≥2x less memory than Naive "
        "on real-shaped data", c8)

    # --- Figs. 10-14 performance-shape claims ----------------------------
    def leader(operator_name: str):
        rates = {
            name: EXP1.measure(timed, operator_name, name, LARGE_WINDOW)
            for name in available_algorithms()
        }
        return max(rates, key=rates.get) == "slickdeque", ranking(rates)
    add("C9", "Single-query Sum throughput leader at large windows is "
        "SlickDeque (Fig. 10)", lambda: leader("sum"))
    add("C10", "Single-query Max throughput leader at large windows is "
        "SlickDeque (Fig. 11)", lambda: leader("max"))

    def c11():
        # The minimum over three runs: an algorithm's *structural* spike
        # (flip, sweep) recurs every run, while one-off scheduler pauses
        # do not.
        maxima = {
            name: min(
                EXP3.measure(config, "sum", name, LATENCY_WINDOW).maximum
                for _ in range(3)
            )
            for name in ("twostacks", "daba", "slickdeque")
        }
        # The headline is SlickDeque's flatness; the DABA < TwoStacks
        # sub-ordering is reported as evidence but can jitter on a
        # noisy host, so it does not gate the verdict.
        return (
            maxima["slickdeque"] < maxima["daba"]
            and maxima["slickdeque"] < maxima["twostacks"],
            ", ".join(f"{n} max={v:,.0f}ns" for n, v in maxima.items()),
        )
    add("C11", "Max-latency spike: SlickDeque below DABA and "
        "TwoStacks (Fig. 14)", c11)

    def c12():
        multi = {
            name: table1("max", name).multi.amortized
            for name in available_algorithms(multi_query=True)
        }
        slick = multi.pop("slickdeque")
        return (
            all(slick < other for other in multi.values()),
            f"slickdeque={slick:.2f} vs "
            + ", ".join(f"{n}={v:.1f}" for n, v in multi.items()),
        )
    add("C12", "Max-multi-query op cost: SlickDeque below every "
        "competitor (Figs. 12-13)", c12)

    def c13():
        supported = set(available_algorithms(multi_query=True))
        return (
            "twostacks" not in supported and "daba" not in supported,
            f"multi-query capable: {sorted(supported)}",
        )
    add("C13", "TwoStacks and DABA do not support multi-query "
        "execution (§2.2)", c13)

    def c14():
        windows = (32, 64, 128, 256) if quick else (32, 64, 128, 256,
                                                    512)
        expected = {
            "naive": "n",
            "flatfat": "log n",
            "slickdeque": "1",
            "daba": "1",
        }
        fits = {
            name: classify_algorithm_time(
                name, "sum", windows=windows
            ).model
            for name in expected
        }
        return (
            fits == expected,
            ", ".join(f"{n}: O({m})" for n, m in fits.items()),
        )
    add("C14", "Fitted growth classes match Table 1's asymptotic "
        "columns", c14)

    return claims


def render(claims: List[Claim]) -> str:
    """Human-readable verdict listing."""
    lines = ["Paper-claims validation", ""]
    width = max(len(c.statement) for c in claims)
    for claim in claims:
        verdict = "PASS" if claim.passed else "FAIL"
        lines.append(
            f"[{verdict}] {claim.identifier:>4}  "
            f"{claim.statement:<{width}}  ({claim.evidence})"
        )
    passed = sum(c.passed for c in claims)
    lines.append("")
    lines.append(f"{passed}/{len(claims)} claims reproduced")
    return "\n".join(lines)
