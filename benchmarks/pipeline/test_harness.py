"""Self-tests of the benchmark harness (not part of tier-1).

Run from the repo root with ``PYTHONPATH=src python -m pytest
benchmarks/pipeline -q`` (``benchmarks/conftest.py`` imports ``repro``).  They hold the
harness's own arithmetic to brute-force references, the generators to
their stated properties, the oracle to ``repro.baselines.recalc``, and
the metric names the code emits to ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO_ROOT / "src"))

import estimators  # noqa: E402
import inputs  # noqa: E402
import ladder  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- estimators ---------------------------------------------------------


def test_quantile_is_nearest_rank():
    data = list(range(1, 101))
    assert estimators.quantile(data, 0.5) == 50
    assert estimators.quantile(data, 0.99) == 99
    assert estimators.quantile(data, 1.0) == 100
    assert estimators.quantile([7], 0.999) == 7
    rng = random.Random(5)
    sample = sorted(rng.expovariate(1.0) for _ in range(977))
    for q in (0.25, 0.5, 0.75, 0.99, 0.999):
        at_most = sum(value <= estimators.quantile(sample, q) for value in sample)
        # Nearest rank: the smallest value with at least q of the sample
        # at or below it.
        assert at_most / len(sample) >= q > (at_most - 1) / len(sample)


def test_segment_series_normalises_and_takes_the_median():
    rng = random.Random(11)
    series = estimators.SegmentSeries()
    expected_times, expected_rates, raw_rates = [], [], []
    for _ in range(40):
        slowdown = rng.choice([1.0, 1.0, 1.0, 1.3, 1.6])
        spins = [40.0 * slowdown * rng.uniform(0.99, 1.01) for _ in range(2)]
        factor = estimators.slowdown(spins)
        # The workload loses SPIN_EXPONENT times what the spin loses.
        time_ns = 1000.0 * slowdown**estimators.SPIN_EXPONENT
        rate = 5000.0 / slowdown**estimators.SPIN_EXPONENT
        series.add(spins, step_p50_ns=time_ns, tuples_per_s=rate)
        expected_times.append(time_ns / factor)
        expected_rates.append(rate * factor)
        raw_rates.append(rate)
    # Brute force: sort, take the middle pair's mean.
    middle = lambda values: sum(sorted(values)[19:21]) / 2  # noqa: E731
    assert series.median("step_p50_ns") == middle(expected_times)
    assert series.median("tuples_per_s") == middle(expected_rates)
    assert series.raw_median("tuples_per_s") == middle(raw_rates)
    # A slowdown the spins saw is divided out, whatever its size.
    assert series.median("step_p50_ns") == pytest.approx(1000.0, rel=0.02)
    assert series.median("tuples_per_s") == pytest.approx(5000.0, rel=0.02)
    assert series.spread("tuples_per_s")["segments"] == 40


def test_segment_series_median_moves_with_a_cost_on_most_segments():
    few, most = estimators.SegmentSeries(), estimators.SegmentSeries()
    for index in range(40):
        # Interference no spin saw: on a third of the segments the
        # median holds, on two thirds it reports the cost.
        few.add([40.0, 40.0], answer_p99_ms=50.0 if index % 3 == 0 else 10.0)
        most.add([40.0, 40.0], answer_p99_ms=10.0 if index % 3 == 0 else 50.0)
    assert few.median("answer_p99_ms") == 10.0
    assert most.median("answer_p99_ms") == 50.0


def test_a_segment_without_a_latency_still_counts_for_the_rate():
    series = estimators.SegmentSeries()
    series.add([40.0, 40.0], tuples_per_s=100.0, answer_p50_ms=5.0)
    series.add([40.0, 40.0], tuples_per_s=0.0)  # stalled: nothing answered
    series.add([40.0, 40.0], tuples_per_s=90.0, answer_p50_ms=7.0)
    assert series.median("tuples_per_s") == 90.0
    assert series.median("answer_p50_ms") == 6.0
    assert series.spread("tuples_per_s")["segments"] == 3


def test_unnormalised_series_keep_raw_values():
    series = estimators.SegmentSeries()
    series.add([], answer_p50_ms=7.5, tuples_per_s=50_000.0)
    assert series.factors == [1.0]
    assert series.median("answer_p50_ms") == 7.5
    assert series.median("tuples_per_s") == 50_000.0


def test_spins_can_apply_to_one_value_only():
    # The open loop: ten spins around the stream, for the CPU alone.
    series = estimators.SegmentSeries()
    series.add(
        [60.0] * 10, only=("cpu_us_per_tuple",),
        cpu_us_per_tuple=9.0, tuples_per_s=50_000.0, answer_p50_ms=8.0,
    )
    assert series.median("cpu_us_per_tuple") == pytest.approx(
        9.0 / 1.5**estimators.SPIN_EXPONENT
    )
    assert series.raw_median("cpu_us_per_tuple") == 9.0
    assert series.median("tuples_per_s") == 50_000.0
    assert series.median("answer_p50_ms") == 8.0


def test_answers_out_rate_on_a_synthetic_answer_timeline():
    # 1000 tuples answered every 10 ms, starting 30 ms after the pause
    # ended (pipeline fill) with 4000 tuples still in flight at the end.
    arrivals = [(5.03 + 0.01 * step, 20_000 + 1000 * step) for step in range(21)]
    assert estimators.answers_out_rate(arrivals) == pytest.approx(100_000.0)
    # Sent-minus-elapsed would have read (40 000 + 4000) / 0.23 s.
    assert 44_000 / 0.23 > 1.9 * estimators.answers_out_rate(arrivals)


def test_a_stalled_segment_stays_in_the_series_as_a_slow_one():
    import served_workloads

    class _Query:
        name = "q"

    def row(arrivals, answered_before=0):
        return served_workloads._segment_row(
            arrivals, answered_before, (0, 4_000_000_000), [0, 10], [5, 20],
            0, 2, lambda position: 0, 1.0,
        )

    frame = (1_000, [(32, _Query, 7)], 0)
    later = (2_000_000_000, [(64, _Query, 9)], 0)
    # Two answer frames: positions answered between them.
    steady = row([frame, later])
    assert steady["tuples_per_s"] == pytest.approx(32 / (2.0 - 1e-6))
    assert steady["answer_p50_ms"] == pytest.approx(1e-3)
    # One frame: what it answered, over the segment's whole send window.
    assert row([later], answered_before=32)["tuples_per_s"] == pytest.approx(8.0)
    # None: a rate of zero and no latency, but the call times remain.
    stalled = row([], answered_before=32)
    assert stalled["tuples_per_s"] == 0.0
    assert "answer_p50_ms" not in stalled
    assert stalled["step_p50_ns"] == 5


def test_least_squares_slope():
    xs = [0.0, 1.0, 2.0, 3.0]
    assert estimators.least_squares_slope(xs, [5.0, 7.0, 9.0, 11.0]) == pytest.approx(2.0)
    assert estimators.least_squares_slope(xs, [4.0, 4.0, 4.0, 4.0]) == 0.0


def test_calibration_flags_a_disturbed_run():
    steady = estimators.calibration_summary([40.0, 41.0, 40.5, 40.2, 41.1])
    assert not steady["noisy"]
    disturbed = estimators.calibration_summary([40.0, 41.0, 80.0, 95.0, 40.2, 70.0])
    assert disturbed["noisy"]


# -- open-loop scheduling -------------------------------------------------


class _FakeClient:
    """Counts sends; the third SUBMIT blocks for 30 ms (a stall)."""

    def __init__(self):
        self.sent = 0

    def send_frame(self, frame_type, payload):
        import time

        from repro.net.protocol import FrameType

        if frame_type is FrameType.SUBMIT_BATCH:
            self.sent += 1
            if self.sent == 3:
                time.sleep(0.03)


class _FakeReader:
    error = None

    def __init__(self):
        from collections import deque

        self.kinds = deque()


def test_open_loop_stamps_due_times_and_reports_lag():
    due = loadgen.open_loop_schedule([(50_000, 10), (10_000, 2)], 256)
    gap = 256 / 50_000
    assert due[:3] == pytest.approx([0.0, gap, 2 * gap])
    assert due[10] == pytest.approx(10 * gap)  # the low-rate phase starts
    assert due[11] - due[10] == pytest.approx(256 / 10_000)

    progress = [0]
    ticks = []
    origin, starts, ends = loadgen.send_open_loop(
        _FakeClient(), _FakeReader(), [[("k", 1)]], due, progress, 5, ticks.append
    )
    assert progress[0] == len(due)
    assert ticks == [0, 5, 10]
    lags = [(start - origin) / 1e9 - offset for start, offset in zip(starts, due)]
    # The schedule never moves: batch 3's due time is what it was, and
    # the batches after the stall are late by what the stall cost them.
    assert lags[0] < 0.003
    assert lags[3] > 0.02
    assert lags[-1] < 0.005  # caught up by the slow phase
    assert all(later >= earlier for earlier, later in zip(starts, starts[1:]))


# -- generators -----------------------------------------------------------


def test_generators_are_seed_deterministic():
    assert inputs.keyed_stream(9, 2000) == inputs.keyed_stream(9, 2000)
    assert inputs.keyed_stream(9, 2000) != inputs.keyed_stream(10, 2000)
    assert inputs.spiky_floats(9, 2000) == inputs.spiky_floats(9, 2000)
    assert inputs.disordered_events(9, 4000) == inputs.disordered_events(9, 4000)


def test_zipf_keys_are_skewed_like_zipf():
    keys, values = inputs.keyed_stream(3, 50_000)
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == inputs.NUM_KEYS
    # Zipf(1.0): rank 1 draws about twice rank 2 and four times rank 4.
    assert counts["k00"] / counts["k01"] == pytest.approx(2.0, rel=0.15)
    assert counts["k00"] / counts["k03"] == pytest.approx(4.0, rel=0.2)
    assert min(values) >= inputs.VALUE_LOW and max(values) <= inputs.VALUE_HIGH


def max_displacement(timestamps):
    """Largest distance a record trails the newest timestamp before it."""
    worst = 0.0
    high = float("-inf")
    for timestamp in timestamps:
        if timestamp > high:
            high = timestamp
        elif high - timestamp > worst:
            worst = high - timestamp
    return worst


def displaced_share(timestamps):
    """Share of records that arrive after a record with a later timestamp."""
    late = 0
    high = float("-inf")
    for timestamp in timestamps:
        if timestamp > high:
            high = timestamp
        else:
            late += 1
    return late / len(timestamps)


def test_displaced_records_stay_inside_the_lateness_bound():
    timestamps, values = inputs.disordered_events(4, 40_000)
    assert len(timestamps) == len(values) == 40_000
    assert sorted(timestamps) == [
        inputs.event_timestamp(index) for index in range(40_000)
    ]
    assert max_displacement(timestamps) < inputs.EVENT_MAX_DELAY
    assert inputs.EVENT_MAX_DELAY < inputs.EVENT_LATENESS
    assert 0.05 < displaced_share(timestamps) < 0.12
    # The period ends in order, so periods concatenate without lateness.
    tail = timestamps[-int(inputs.EVENT_LATENESS * inputs.EVENT_RATE) :]
    assert tail == sorted(tail)


def test_an_invalid_run_is_measured_again_and_the_least_late_kept(monkeypatch):
    import run

    def attempt(valid, lag):
        note = [] if valid else [f"INVALID lag {lag}"]
        return {"valid": valid, "detail": {"loadgen.lag_p99_ms": lag}, "notes": note}

    queue = [attempt(False, 9.0), attempt(False, 30.0), attempt(True, 1.0)]
    monkeypatch.setattr(run, "spawn", lambda *args: queue.pop(0))
    result = run.measure("socket_open_sum", "run", 1, 8.0, None)
    assert result["valid"] and not queue
    assert result["notes"] == [
        "2 invalid run(s) discarded besides this one: INVALID lag 9.0; INVALID lag 30.0"
    ]
    # Never valid: every attempt is used, the least late one reported.
    queue = [attempt(False, lag) for lag in (9.0, 6.0, 30.0, 7.0, 8.0, 12.0, 1.0)]
    result = run.measure("socket_open_sum", "run", 1, 8.0, None)
    assert len(queue) == 7 - run.MEASURE_ATTEMPTS
    assert not result["valid"]
    assert result["detail"]["loadgen.lag_p99_ms"] == 6.0


# -- oracle ---------------------------------------------------------------


def test_sliding_max_equals_max_over_the_raw_slice():
    values = inputs.spiky_floats(2, 3000)
    for window in (1, 7, 64, 1024, 5000):
        fast = oracle.sliding_max(values, window)
        for position in list(range(1, 80)) + [1024, 1025, 2048, 2999, 3000]:
            assert fast[position - 1] == oracle.brute_force_max(
                values, window, position
            )


def test_periodic_oracles_answer_beyond_the_first_period():
    block = inputs.spiky_floats(6, 500)
    stream = block * 5
    maxima = oracle.CountMaxOracle(block, [64, 300])
    _, ints = inputs.keyed_stream(6, 500)
    sums = oracle.CountSumOracle(ints)
    int_stream = ints * 5
    for position in (1, 63, 64, 65, 499, 500, 501, 1000, 1001, 1777, 2500):
        for window in (64, 300):
            assert maxima.answer(window, position) == oracle.brute_force_max(
                stream, window, position
            )
            assert sums.answer(window, position) == sum(
                int_stream[max(0, position - window) : position]
            )


@pytest.mark.parametrize("operator_name", ["sum", "max"])
def test_oracle_agrees_with_recalc_on_a_5000_tuple_prefix(operator_name):
    from repro.baselines.recalc import RecalcAggregator
    from repro.operators.registry import get_operator

    if operator_name == "sum":
        _, values = inputs.keyed_stream(8, 5000)
        reference = oracle.CountSumOracle(values).answer
        windows = [spec[0] for spec in workloads.COUNT_QUERIES]
    else:
        values = inputs.spiky_floats(8, 5000)
        windows = [1024, 2048]
        reference = oracle.CountMaxOracle(values, windows).answer
    for window in windows:
        recalc = RecalcAggregator(get_operator(operator_name), window)
        for position, value in enumerate(values, start=1):
            assert recalc.step(value) == reference(window, position)


def test_event_oracle_equals_the_time_window_engine_on_the_sorted_stream():
    from repro.operators.registry import get_operator
    from repro.windows.timebased import TimeQuery, TimeWindowEngine

    count = 200 * inputs.EVENT_RATE  # 200 s: a whole number of 2 s cycles
    timestamps, values = inputs.disordered_events(12, count)
    reference = oracle.EventSumOracle(timestamps, values, 200.0, 1.0)
    queries = [TimeQuery(*spec) for spec in workloads.TIME_QUERIES]
    engine = TimeWindowEngine(queries, get_operator("sum"))
    answers = list(engine.run(sorted(zip(timestamps, values))))
    assert len(answers) == 200 + 100
    for end_time, query, value in answers:
        assert value == reference.answer(query.range_seconds, end_time)


def test_answer_checker_counts_wrong_missing_repeated_and_extra():
    _, values = inputs.keyed_stream(1, 4096)
    reference = oracle.CountSumOracle(values)
    names = {"a": (1024, 32), "b": (512, 64)}

    def expected(until):
        out = []
        for position in range(32, until + 1, 32):
            out.append((position, "a", reference.answer(1024, position)))
            if position % 64 == 0:
                out.append((position, "b", reference.answer(512, position)))
        return out

    clean = oracle.AnswerChecker(names, reference.answer)
    clean.check(expected(2048))
    assert clean.failed(2048) == 0
    assert clean.expected_through(2048) == 64 + 32

    answers = expected(2048)
    wrong = oracle.AnswerChecker(names, reference.answer)
    wrong.check([(p, n, v + (p == 640)) for p, n, v in answers])
    assert wrong.failed(2048) == 2  # both queries report at 640

    missing = oracle.AnswerChecker(names, reference.answer)
    missing.check([a for a in answers if a[0] != 960])
    assert missing.failed(2048) == 2

    repeated = oracle.AnswerChecker(names, reference.answer)
    repeated.check(answers + answers[-1:])
    assert repeated.failed(2048) == 1

    short = oracle.AnswerChecker(names, reference.answer)
    short.check(expected(1984))
    assert short.failed(2048) == 3  # a: 2016, 2048; b: 2048

    beyond = oracle.AnswerChecker(names, reference.answer)
    beyond.check(expected(2112))
    assert beyond.failed(2048) == 3


# -- names, spec, spans -----------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    assert 136 * 25 <= 3420  # 4 + 22 x 6 runs of about 25 s each


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One quick traced run of the cheapest workload."""
    import time

    out = tmp_path_factory.mktemp("trace")
    result = ladder.trace_workload("engine_bulk_sum", 5, 0.5, time.monotonic(), out)
    spans = json.loads((out / "trace_engine_bulk_sum.json").read_text())["spans"]
    return result, spans


def test_emitted_metric_names_are_exactly_those_of_benchmark_json(traced_run):
    result, _ = traced_run
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(NAME.match(name) for name in result["per_layer"])
    assert result["failed"] == 0 and result["attempted"] > 0


def test_span_parent_links_form_a_tree(traced_run):
    _, spans = traced_run
    assert {"name", "start_ns", "end_ns", "parent", "workload"} == set(spans[0])
    roots = [index for index, span in enumerate(spans) if span["parent"] is None]
    assert {spans[index]["name"] for index in roots} >= {
        "workload.engine_bulk_sum", "ladder"
    }
    for index, span in enumerate(spans):
        assert span["end_ns"] >= span["start_ns"] > 0
        parent = span["parent"]
        if parent is None:
            continue
        # Parents are recorded before their children, so following the
        # links always descends and must end at a root: no cycles.
        assert 0 <= parent < index
        assert spans[parent]["start_ns"] <= span["start_ns"]
        assert span["end_ns"] <= spans[parent]["end_ns"]
    rungs = {spans[i]["name"] for i, s in enumerate(spans) if s["parent"] is not None
             and spans[s["parent"]]["name"] == "ladder"}
    assert {"kernels.fold", "service.shard.process", "net.client.send_frame"} <= rungs
