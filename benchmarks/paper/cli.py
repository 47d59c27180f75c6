"""Command-line entry point: regenerate the paper's tables and figures.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.paper.cli table1
    PYTHONPATH=src python -m benchmarks.paper.cli exp1 --scale default
    PYTHONPATH=src python -m benchmarks.paper.cli exp2 --scale quick
    PYTHONPATH=src python -m benchmarks.paper.cli all --scale quick

``make experiments``, ``make quick-experiments`` and ``make validate``
wrap it.  ``validate`` exits 1 when a claim fails and names the failed
claims on stderr; ``all`` is a report and exits 0 either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Dict, List, Optional, Tuple

from benchmarks.paper import validate
from benchmarks.paper.sweeps import (
    CHUNK,
    EXP1,
    EXP2,
    EXP3,
    EXP4,
    EXP5,
    SCALES,
    SHAPES,
    SHARING,
    SLICING,
    SPIKES,
    TABLE1,
    Sweep,
)

#: The sweeps each subcommand reports, in report order.
SECTIONS: Dict[str, Tuple[Sweep, ...]] = {
    "table1": (TABLE1,),
    "exp1": (EXP1,),
    "exp2": (EXP2,),
    "exp3": (EXP3, SPIKES),
    "exp4": (EXP4,),
    "exp5": (EXP5,),
    "ablations": (CHUNK, SHARING, SLICING, SHAPES),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.paper.cli",
        description=(
            "Regenerate the tables and figures of SlickDeque "
            "(EDBT 2018)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*SECTIONS, "validate", "all"],
        help="which evaluation artifact to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="workload scale (quick ≈ seconds, paper ≈ hours)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=64,
        help="window size for the table1 validation",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append ASCII log-log shape charts to exp1/exp2/exp4 reports",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="also write the report to this file",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the experiment(s), print the report.

    Returns the exit status: 1 for ``validate`` with a failed claim,
    0 otherwise.
    """
    args = _build_parser().parse_args(argv)
    config = dataclasses.replace(
        SCALES[args.scale](), table1_window=args.window
    )
    chosen = list(SECTIONS) if args.experiment == "all" else [args.experiment]
    sections = [
        sweep.report(config, args.chart)
        for name in chosen
        for sweep in SECTIONS.get(name, ())
    ]
    failed: List[str] = []
    if args.experiment in ("validate", "all"):
        claims = validate.check_all(quick=args.scale == "quick")
        sections.append(validate.render(claims))
        failed = [claim.identifier for claim in claims if not claim.passed]
    report = "\n\n".join(sections)
    print(report)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    if failed and args.experiment == "validate":
        print(f"failed claims: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())
