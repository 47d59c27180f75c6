"""One workload in one fresh process (clean RSS, imports and GC state).

``run.py`` spawns this once per measurement and a few more times in
``--mode setup`` so ``setup_s`` is a median rather than one reading.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args()
    spawned_at = (
        args.spawned_at if args.spawned_at is not None else time.monotonic()
    )
    sys.path.insert(0, str(REPO_ROOT / "src"))

    if args.mode == "trace":
        import ladder

        result = ladder.trace_workload(
            args.workload, args.seed, args.seconds, spawned_at, OUT_DIR
        )
    else:
        import workloads

        result = workloads.run_workload(
            args.workload, args.mode, args.seed, args.seconds, spawned_at
        )
        result.pop("call_stamps", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
