"""The pipeline benchmark: one command, six workloads, every layer.

Two ways to run it.

The driver's contract (one workload, one JSON object on the last line)::

    python3 benchmarks/pipeline/run.py --workload engine_bulk_sum \\
        --seed 7 --seconds 8 --trace 0      # the end-to-end metrics
    python3 benchmarks/pipeline/run.py --workload engine_bulk_sum \\
        --seed 7 --seconds 8 --trace 1      # the per-layer metrics

The whole suite, for people::

    python3 benchmarks/pipeline/run.py --seed 2012            # untraced
    python3 benchmarks/pipeline/run.py --seed 2012 --traced   # + ladder
    python3 benchmarks/pipeline/run.py --quick                # smoke pass
    python3 benchmarks/pipeline/run.py --repeat 2 --check-agreement

Every workload runs in a fresh subprocess (``workload_proc.py``); an
untraced run is preceded by ``SETUP_REPEATS - 1`` set-up-only
subprocesses so ``setup_s`` is a median.  See ``README.md`` for what
each metric means and how the metrics are expected to interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, measured_segments  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Measuring processes one invocation may start before it reports an
#: invalid run (see :func:`measure`): if every open-loop run of the
#: driver's 136 used them all, the runs would still fit its hour.
MEASURE_ATTEMPTS = 4
#: Seconds all child processes of one invocation may take together
#: in the driver's one-workload mode (its limit is 180 s).
RUN_DEADLINE = 170.0
QUICK_DIVISOR = 8


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` — the names, units, directions and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spawn(
    workload: str, mode: str, seed: int, seconds: float, deadline: Optional[float]
) -> Dict[str, Any]:
    """One ``workload_proc.py`` child; returns its JSON result.

    The child leads its own process group, so its workers and server
    can be killed with it if it overruns ``deadline`` (monotonic).
    """
    command = [
        sys.executable,
        str(HERE / "workload_proc.py"),
        "--workload", workload,
        "--mode", mode,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--spawned-at", repr(time.monotonic()),
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True)
    try:
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        stdout, _ = child.communicate(timeout=timeout)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) exited with code {child.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def measure(
    workload: str, mode: str, seed: int, seconds: float, deadline: Optional[float]
) -> Dict[str, Any]:
    """One measuring child, started again while its run is invalid.

    Only the open loop can be invalid: a box stall of 100 ms makes its
    generator late for more than 1% of an 8 s schedule, and what was
    measured then is the stall.  Such a run is discarded, counted in a
    note, and repeated.  If ``MEASURE_ATTEMPTS`` in a row are invalid,
    the one whose generator was least late is reported, still marked
    invalid; its ``correct`` is false if its server could not hold the
    rate (the system's failing), and the oracle's verdict if only the
    generator was late (the box's: late sends are a few percent of the
    batches and are charged to the tail, not to the p50 that is gated).
    """
    attempts: List[Dict[str, Any]] = []
    for _ in range(MEASURE_ATTEMPTS):
        attempts.append(spawn(workload, mode, seed, seconds, deadline))
        if attempts[-1]["valid"]:
            break
    result = attempts[-1]
    if not result["valid"]:
        result = min(
            attempts, key=lambda run: run["detail"]["loadgen.lag_p99_ms"]
        )
    discarded = [
        note for run in attempts if run is not result for note in run["notes"]
    ]
    if discarded:
        result["notes"].append(
            f"{len(attempts) - 1} invalid run(s) discarded besides this one: "
            + "; ".join(discarded)
        )
    return result


def run_untraced(
    workload: str, seed: int, seconds: float, deadline: Optional[float]
) -> Dict[str, Any]:
    """Set up ``SETUP_REPEATS`` times, measure once."""
    rehearsals = [
        spawn(workload, "setup", seed, seconds, deadline)
        for _ in range(SETUP_REPEATS - 1)
    ]
    result = measure(workload, "run", seed, seconds, deadline)
    setups = [run["setup_s"] for run in rehearsals + [result]]
    result["setup_samples"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    lost = sum(run.get("restarts", 0) for run in rehearsals)
    if lost:
        result["notes"].append(
            f"WARNING: {lost} shard worker restart(s) in the set-up-only "
            "processes (not in service.supervisor.restarts, which counts "
            "the measured run)"
        )
    return result


def host_meta(seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """What a reader needs to judge whether two results are comparable."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.kernels import active_backends
    from repro.service.transport import shm_supported

    import multiprocessing

    from estimators import REFERENCE_SPIN_NS, SPIN_EXPONENT

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        ).stdout.decode().strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "kernel_backends": active_backends(),
        "shm_supported": shm_supported(),
        "fork_available": "fork" in multiprocessing.get_all_start_methods(),
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "scale": "quick" if quick else "full",
        "measured_segments": measured_segments(seconds),
        # Times are stated at this calibration-spin speed (see README).
        "reference_spin_ns": REFERENCE_SPIN_NS,
        "spin_exponent": SPIN_EXPONENT,
        "segment_tuples": {
            name: spec["segment_tuples"] for name, spec in WORKLOADS.items()
        },
    }


# -- printing -----------------------------------------------------------


def _units(spec: Dict[str, Any], group: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[group]}


def print_result(
    spec: Dict[str, Any], workload: str, result: Dict[str, Any], traced: bool
) -> None:
    """Every metric of one run by name, with its unit."""
    units = _units(spec, "per_layer" if traced else "end_to_end")
    table = result["per_layer"] if traced else result["metrics"]
    label = "per-layer (ladder replay)" if traced else "end-to-end (tracing off)"
    print(f"== {workload}: {label}")
    raw = {} if traced else result["raw"]
    for name in units:
        print(
            f"  {name:<52} {table[name]:>16.6g} {units[name]}"
            + (f"   (raw median {raw[name]:.6g})" if name in raw else "")
        )
    if not traced:
        rate = result["rate"]
        print(
            f"  ingest per segment: quartiles {rate['q1']:.6g} / {rate['median']:.6g}"
            f" / {rate['q3']:.6g} tuples/s over {rate['segments']} segments; "
            "setup samples "
            + ", ".join(f"{value:.3f}" for value in result["setup_samples"])
        )
        for name, value in sorted(result["detail"].items()):
            print(f"  detail {name:<45} {value:>16.6g}")
    calibration = result["calibration"]
    print(
        f"  harness.calib_ns_per_iter {calibration['ns_per_iter']:.3f} ns, "
        f"IQR/median {calibration['iqr_ratio']:.3f}"
        + ("  ** noisy **" if calibration["noisy"] else "")
    )
    print(
        f"  answers+records attempted {result['attempted']}, failed "
        f"{result['failed']}"
        + (
            f" (first mismatch {result['first_mismatch']})"
            if result["failed"]
            else ""
        )
    )
    for note in result.get("notes", []):
        print(f"  {note}")


def final_line(
    spec: Dict[str, Any], result: Dict[str, Any], traced: bool
) -> str:
    """The driver's result object for one run."""
    group = "per_layer" if traced else "end_to_end"
    table = result["per_layer"] if traced else result["metrics"]
    metrics = {
        metric["name"]: {"value": table[metric["name"]], "unit": metric["unit"]}
        for metric in spec[group]
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0 and not result["saturated"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_retention(
    results: Dict[str, Dict[str, Any]], ladder: Optional[Dict[str, float]]
) -> None:
    """ROADMAP item 1's ratios, each with its base.

    ``service.service.inline`` is a ladder rung, so two of the three
    need a ``--traced`` run.
    """

    def rate(name: str) -> Optional[float]:
        result = results.get(name)
        return result["metrics"]["ingest_tuples_per_s"] if result else None

    engine = rate("engine_bulk_sum")
    shm = rate("service_shm_sum")
    closed = rate("socket_closed_sum")
    inline = (
        1e9 / ladder["service.service.inline_ns_per_tuple"] if ladder else None
    )
    print("== derived retention ratios (ROADMAP item 1)")
    for label, top, base, top_name, base_name in (
        ("service.inline / engine", inline, engine,
         "service.service.inline", "engine_bulk_sum"),
        ("service_shm / engine", shm, engine, "service_shm_sum", "engine_bulk_sum"),
        ("socket_closed / service.inline", closed, inline,
         "socket_closed_sum", "service.service.inline"),
    ):
        if top is None or base is None:
            print(f"  {label:<34} not run: needs {top_name} and {base_name}")
            continue
        print(
            f"  {label:<34} {top / base:7.2%}   "
            f"({top_name} {top:,.0f} / {base_name} {base:,.0f} tuples/s)"
        )


# -- agreement ----------------------------------------------------------


def relative_spread(values: Sequence[float]) -> float:
    """Max minus min as a share of the median."""
    return (max(values) - min(values)) / statistics.median(values)


def check_agreement(
    spec: Dict[str, Any], sets: Sequence[Dict[str, Dict[str, Any]]]
) -> int:
    """Per (workload, metric) spread across full sets against its bound."""
    breaches = 0
    print(f"== agreement across {len(sets)} sets (spread / bound)")
    for workload in sets[0]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run[workload]["metrics"][name] for run in sets]
            spread = relative_spread(values)
            verdict = "ok" if spread <= metric["bound"] else "BREACH"
            breaches += verdict == "BREACH"
            print(
                f"  {workload:<24} {name:<24} {spread:7.3f} / "
                f"{metric['bound']:.2f}  {verdict}"
            )
        # failed_share may not rise at all: its expected value is 0.
        failed = [run[workload]["failed"] for run in sets]
        invalid = [not run[workload]["valid"] for run in sets]
        if any(failed) or any(invalid):
            breaches += 1
            print(
                f"  {workload:<24} failed {failed}, invalid runs "
                f"{sum(invalid)}  BREACH"
            )
    return breaches


# -- entry point --------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: add the traced pass and the ladder")
    parser.add_argument("--quick", action="store_true",
                        help="divide the fixed work by 8 (labelled quick)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check-agreement", action="store_true")
    args = parser.parse_args()

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(
            f"no system under test: {REPO_ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.quick:
        seconds /= QUICK_DIVISOR
    print("meta " + json.dumps(host_meta(args.seed, seconds, args.quick)))

    if args.workload is not None and args.trace is not None:
        traced = bool(args.trace)
        deadline = time.monotonic() + RUN_DEADLINE
        result = (
            measure(args.workload, "trace", args.seed, seconds, deadline)
            if traced
            else run_untraced(args.workload, args.seed, seconds, deadline)
        )
        print_result(spec, args.workload, result, traced)
        print(final_line(spec, result, traced))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    sets: List[Dict[str, Dict[str, Any]]] = []
    failed = 0
    for repeat in range(args.repeat):
        if args.repeat > 1:
            print(f"==== set {repeat + 1} of {args.repeat}")
        results: Dict[str, Dict[str, Any]] = {}
        ladder: Optional[Dict[str, float]] = None
        for name in names:
            results[name] = run_untraced(name, args.seed, seconds, None)
            print_result(spec, name, results[name], False)
            failed += results[name]["failed"] + (not results[name]["valid"])
            if args.traced:
                traced_result = measure(name, "trace", args.seed, seconds, None)
                print_result(spec, name, traced_result, True)
                ladder = traced_result["per_layer"]
        print_retention(results, ladder)
        sets.append(results)
    breaches = check_agreement(spec, sets) if args.check_agreement else 0
    noisy = sorted(
        {name for run in sets for name, result in run.items()
         if result["calibration"]["noisy"]}
    )
    print("summary " + json.dumps(
        {"failed": failed, "agreement_breaches": breaches, "noisy": noisy}
    ))
    return 1 if failed or breaches else 0


if __name__ == "__main__":
    raise SystemExit(main())
