"""The statistics of ``scripts/bench_pairs.py``, on canned result lines;
no benchmark runs here."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def line(op_p50_ms, peak_rss_mb=42.6, correct=True, failed=0):
    values = {"setup_s": (0.13, "s"), "run_s": (op_p50_ms / 1000.0, "s"), "op_p50_ms": (op_p50_ms, "ms")}
    values["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return json.dumps({"correct": correct, "attempted": 1, "failed": failed, "metrics": metrics})


PARENT = [406.0, 446.0, 415.0, 420.0, 431.0, 410.0, 425.0, 440.0, 412.0, 418.0]
CHANGE = [355.0, 371.0, 360.0, 365.0, 368.0, 362.0, 366.0, 370.0, 358.0, 364.0]


def test_result_line_is_the_last_line():
    stdout = "report-rotation seed 1 trace 0: 1 rounds\nop_p50_ms 400\n" + line(400.0) + "\n"
    assert bench_pairs.value(bench_pairs.result_line(stdout), "op_p50_ms") == 400.0
    with pytest.raises(ValueError):
        bench_pairs.result_line("")


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_holds_with_nine_wins_and_a_gap_past_the_parents_spread():
    stats = bench_pairs.compare(PARENT, CHANGE)
    assert stats["wins"] == 10 and stats["gain"]
    # One pair lost still leaves nine of ten.
    change = [PARENT[0] + 1.0, *CHANGE[1:]]
    assert bench_pairs.compare(PARENT, change)["wins"] == 9
    assert bench_pairs.compare(PARENT, change)["gain"]
    # Two lost pairs break the rule, and so does a tie.
    assert not bench_pairs.compare(PARENT, [PARENT[0], PARENT[1] + 1.0, *CHANGE[2:]])["gain"]


def test_gain_needs_a_median_gap_wider_than_the_parents_interquartile_range():
    # Lower in every pair, by less than the parent's spread.
    change = [value - 1.0 for value in PARENT]
    stats = bench_pairs.compare(PARENT, change)
    low, _, high = stats["parent"]
    assert stats["wins"] == 10 and high - low > 1.0
    assert not stats["gain"]


def test_direction_follows_the_metric():
    assert bench_pairs.compare(CHANGE, PARENT, "higher")["gain"]
    assert not bench_pairs.compare(CHANGE, PARENT, "lower")["gain"]
    assert bench_pairs.compare(CHANGE, PARENT, "lower")["wins"] == 0


def test_summary_names_each_metric_and_its_verdict():
    results = [
        (bench_pairs.result_line(line(a)), bench_pairs.result_line(line(b, 42.7)))
        for a, b in zip(PARENT, CHANGE)
    ]
    metrics = [("op_p50_ms", "lower"), ("peak_rss_mb", "lower")]
    op, rss = bench_pairs.summary_lines(results, metrics)
    assert op.startswith("op_p50_ms: parent 419 [") and "lower in 10 of 10" in op and op.endswith("gain holds")
    assert "lower in 0 of 10" in rss and rss.endswith("gain does not hold")
    text = bench_pairs.pair_line(0, 501, *results[0], metrics)
    assert text.startswith("pair 1 seed 501: parent op_p50_ms=406 peak_rss_mb=42.6 correct=True failed=0/1")


def test_gain_never_holds_on_fewer_than_ten_pairs():
    # A single pair has no spread, and nine pairs all won are still too few.
    assert not bench_pairs.compare(PARENT[:1], CHANGE[:1])["gain"]
    stats = bench_pairs.compare(PARENT[:9], CHANGE[:9])
    assert stats["wins"] == 9 and not stats["gain"]


def test_runs_last_the_benchmarks_run_length():
    seconds, metrics = bench_pairs.benchmark_spec()
    spec = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert seconds == spec["run_seconds"]
    assert [name for name, _ in metrics] == [metric["name"] for metric in spec["end_to_end"]]
