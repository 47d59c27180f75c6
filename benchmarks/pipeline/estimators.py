"""The harness's own arithmetic: quantiles, segment series, calibration.

Kept free of ``repro`` and of the workloads so ``test_harness.py`` can
hold every estimator to a brute-force reference.

How a run becomes one number
----------------------------
A run is cut into equal *segments* (~0.2 s each).  Each segment gets
its own value of every metric — its tuple rate, its CPU per tuple, the
p50 / p99 / p99.9 of the calls or answers that fell into it — and a
calibration spin runs next to it.  Two things then happen:

* **normalisation** — the shared 2-core box changes speed by up to
  30% for minutes at a time (the spin reads 40 ns per iteration when it
  is quiet, 45-65 ns when it is not).  Each segment's times are divided
  by ``(spin / REFERENCE_SPIN_NS) ** SPIN_EXPONENT`` of the spins beside
  it, so a metric reads what the segment would have taken at the
  reference spin speed.
  The reference is a fixed constant, recorded in every run's ``meta``;
  the un-normalised median is kept and printed beside each value;
* **median across segments** — the reported value is the median of the
  normalised per-segment values (for a percentile: the median across
  segments of the per-segment percentile), so a cost that hits half
  the segments moves it.  No segment is left out: one stalled by a
  box pause or a shard-worker restart stays in the series as the slow
  segment it was.  The quartiles are printed beside the median.

``socket_open_sum`` runs on a schedule that cannot pause for a spin.
Its spins run before and after the stream and apply to the server's
CPU per tuple only; its rate is set by the schedule and its latency
is mostly scheduled waiting, so both are reported as measured.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Iterations of one calibration spin (~30 ms of pure Python here).
CALIBRATION_ITERATIONS = 600_000
#: The spin speed every normalised value is stated at: what one
#: iteration takes on the undisturbed box the workloads were sized on.
#: On another host or interpreter normalised values are still comparable
#: with each other (same constant), but only the raw values are physical.
REFERENCE_SPIN_NS = 40.0
#: What a disturbed box takes from the spin it takes this many times
#: over, in log terms, from the workloads: the spin is a loop in
#: registers and L1, the workloads touch memory.  Fitted across runs
#: made in quiet and in disturbed spells (spin 39-65 ns; 50 runs per
#: workload): 1.4-2.0 by workload.  With 1.0 the medians of ten-run sets
#: taken hours apart differed by up to 26% (``service_shm_sum``) and 16%
#: (``socket_closed_sum``); with 1.5 by 11% and 6%.  See the README.
SPIN_EXPONENT = 1.5
#: A workload whose calibration IQR / median exceeds this is ``noisy``.
NOISY_CALIBRATION_RATIO = 0.25


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (``0 < q <= 1``)."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_ratio(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def slowdown(spins_ns: Sequence[float]) -> float:
    """How much slower than the reference box the spins say code ran.

    The median, so that of the three or more spins around a set-up one
    that shared its CPU with a starting worker does not count; of the
    two spins beside a segment it is the mean.
    """
    if not spins_ns:
        return 1.0
    return (statistics.median(spins_ns) / REFERENCE_SPIN_NS) ** SPIN_EXPONENT


class SegmentSeries:
    """Per-segment metric values of one run, calibration-normalised.

    :meth:`add` takes one segment's raw values and the spin readings
    beside it; times (``lower`` is better) are divided by the slowdown
    factor and rates (``higher``) multiplied by it.  :meth:`median` is
    the reported value.  A segment may lack a name (no answer arrived
    in it, so it has no latency); it still counts for the others.
    """

    def __init__(self, rates: Iterable[str] = ("tuples_per_s",)):
        self._rates = frozenset(rates)
        self.values: Dict[str, List[float]] = {}
        #: The same values before normalisation.
        self.raw: Dict[str, List[float]] = {}
        self.factors: List[float] = []
        #: The spin reading taken after each segment.
        self.spins: List[float] = []

    def add(
        self,
        spins_ns: Sequence[float],
        only: Optional[Iterable[str]] = None,
        **raw: float,
    ) -> None:
        """One segment: ``spins_ns`` are the spin readings next to it.

        ``only`` names the values the spins apply to (the rest are kept
        as measured); by default they apply to every value.
        """
        factor = slowdown(spins_ns)
        self.factors.append(factor)
        self.spins.extend(spins_ns[-1:])
        for name, value in raw.items():
            if only is not None and name not in only:
                normalised = value
            elif name in self._rates:
                normalised = value * factor
            else:
                normalised = value / factor
            self.values.setdefault(name, []).append(normalised)
            self.raw.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        """The median of ``name`` across segments, normalised."""
        return statistics.median(self.values[name])

    def raw_median(self, name: str) -> float:
        """The median of ``name`` across segments as measured."""
        return statistics.median(self.raw[name])

    def spread(self, name: str) -> Dict[str, float]:
        """Quartiles and count of ``name`` across segments (printed)."""
        q1, median, q3 = quartiles(self.values[name])
        return {"q1": q1, "median": median, "q3": q3, "segments": len(self.values[name])}


def answers_out_rate(arrivals: Sequence[Tuple[float, int]]) -> float:
    """Tuples per second answered between the first and last arrival.

    ``arrivals`` are ``(time, stream position answered through)`` pairs
    of one uninterrupted stretch of a stream.  Counting from the first
    arrival leaves out the pipeline's fill time after a pause, and
    counting positions *answered* (not sent) leaves out whatever is
    still in flight at the end.
    """
    (first_time, first_position), (last_time, last_position) = arrivals[0], arrivals[-1]
    return (last_position - first_position) / (last_time - first_time)


def calibration_spin(
    cpu: Optional[int] = None, iterations: int = CALIBRATION_ITERATIONS
) -> float:
    """A fixed pure-Python loop; returns ns per iteration.

    The loop touches nothing of the system under test, so its speed
    varies only with the box.  Interference on this box comes per CPU
    (one reads 41 ns while the other reads 66), so ``cpu`` moves the
    calling thread to the CPU whose speed matters — the one the
    server is pinned to — for the length of the spin.
    """
    previous = None
    if cpu is not None:
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    try:
        accumulator = 0
        started = time.perf_counter_ns()
        for index in range(iterations):
            accumulator += index & 7
        return (time.perf_counter_ns() - started) / iterations
    finally:
        if previous is not None:
            os.sched_setaffinity(0, previous)


def calibration_summary(spins: Sequence[float]) -> Dict[str, float]:
    """Median, IQR ratio and the ``noisy`` verdict for a run's spins."""
    ratio = iqr_ratio(spins)
    return {
        "ns_per_iter": statistics.median(spins),
        "iqr_ratio": ratio,
        "noisy": ratio > NOISY_CALIBRATION_RATIO,
    }


def least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of the least-squares line through ``(xs, ys)``."""
    count = len(xs)
    if count < 2:
        return 0.0
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    spread = sum((x - mean_x) ** 2 for x in xs)
    if spread == 0.0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / spread


# -- per-process accounting (/proc; Linux) ----------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def process_cpu_seconds(pid: int) -> Optional[float]:
    """CPU seconds of a live process's threads, or ``None`` if gone.

    ``schedstat`` counts run time in nanoseconds per thread; where the
    kernel does not have it, the 10 ms ticks of ``stat`` are used.
    """
    try:
        total = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process in MiB."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class ChildCpuMeter:
    """CPU seconds used by a changing set of child processes.

    Sampled at segment ends; a child that is restarted keeps the
    seconds its predecessor had used when last seen.
    """

    def __init__(self) -> None:
        self._first: Dict[int, float] = {}
        self._last: Dict[int, float] = {}

    def sample(self, pids: Iterable[Optional[int]]) -> float:
        """Record the children's CPU now; returns the total used so far."""
        for pid in pids:
            if pid is None:
                continue
            used = process_cpu_seconds(pid)
            if used is None:
                continue
            self._first.setdefault(pid, used)
            self._last[pid] = used
        return sum(self._last[pid] - self._first[pid] for pid in self._last)


class Pinning:
    """This process on the first CPU, what it serves on the last.

    With the load generator and the server left to the scheduler, the
    closed-loop socket rate on the 2-core box read 85-100k tuples/s
    against 110-145k pinned, run to run: migrations between the two
    cores, not the code under test.  Creating one pins the calling
    thread (threads started later inherit it); where there is a single
    CPU or no affinity call, nothing is pinned and :attr:`served_cpu`
    is ``None``.
    """

    def __init__(self) -> None:
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:
            cpus = []
        #: The CPU served processes are moved to.
        self.served_cpu: Optional[int] = cpus[-1] if len(cpus) >= 2 else None
        if self.served_cpu is not None:
            os.sched_setaffinity(0, {cpus[0]})

    def serve(self, pids: Iterable[Optional[int]]) -> None:
        """Move every thread of ``pids`` to the served CPU.

        A child forked by this process starts on this process's CPU —
        a shard worker the supervisor restarted, for one — so callers
        with such children call this again at every segment start.
        """
        if self.served_cpu is None:
            return
        for pid in pids:
            if pid is None:
                continue
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    os.sched_setaffinity(int(task), {self.served_cpu})
            except OSError:  # the process or one of its threads has gone
                continue
