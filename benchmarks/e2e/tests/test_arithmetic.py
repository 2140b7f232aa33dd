"""Percentiles, span self times, spreads and verdicts."""

import compare
import metrics
import spans
import verify


def test_nearest_rank_percentiles():
    samples = list(range(1, 101))
    assert metrics.percentile(samples, 50) == 50
    assert metrics.percentile(samples, 99) == 99
    assert metrics.percentile(samples, 100) == 100
    assert metrics.percentile([5], 99) == 5
    assert metrics.percentile([3, 1, 2], 50) == 2
    # 99th of 1000 samples leaves exactly 10 beyond it.
    assert metrics.percentile(list(range(1000)), 99) == 989


def test_self_time_subtracts_the_union_of_children():
    #        0: [0,100]   1: [10,30] child of 0   2: [20,50] child of 0 (overlaps 1)
    #        3: [60,70] child of 0   4: [62,65] child of 3   5: [90,130] child of 0 (clipped)
    start = [0, 10, 20, 60, 62, 90]
    end = [100, 30, 50, 70, 65, 130]
    parent = [-1, 0, 0, 0, 3, 0]
    own = spans.self_times(start, end, parent)
    assert own[0] == 100 - (40 + 10 + 10)  # [10,50] ∪ [60,70] ∪ [90,100]
    assert own[1] == 20 and own[2] == 30 and own[4] == 3
    assert own[3] == 10 - 3
    assert own[5] == 40


def test_recorder_links_parents_and_orphans():
    recorder = spans.SpanRecorder()
    outer = recorder.wrap(lambda: inner(), spans.Target("m", None, "outer", "outer"))
    inner = recorder.wrap(lambda: 1, spans.Target("m", None, "inner", "inner"))
    recorder.begin_op(0)
    outer()
    recorder.begin_op(1)
    inner()
    assert [recorder.names[i] for i in recorder.name_id] == ["outer", "inner", "inner"]
    assert list(recorder.parent) == [-1, 0, -1]
    assert list(recorder.op) == [0, 0, 1]
    table = recorder.aggregate()
    assert table["inner"]["calls"] == 2 and table["outer"]["calls"] == 1
    assert table["outer"]["self_ns"] <= table["outer"]["total_ns"]


def test_truth_follows_conversions():
    truth = verify.Truth({1: "00", 2: "01"})
    truth.record_move(10, 1, "01")
    assert truth.responsible(1, "0011", 10) and not truth.responsible(1, "0011", 11)
    assert truth.responsible(1, "0111", 11) and truth.moved(1) and not truth.moved(2)
    truth.close({1: "01", 2: "1"})
    assert truth.moved(2)
    assert verify.outside_band("x", 1.019, 1.0) is None
    assert verify.outside_band("x", 1.021, 1.0) is not None
    assert verify.outside_band("x", 1.021, 1.0, noise=0.03) is None


def test_compare_verdicts():
    lower = metrics.EndToEnd("latency_us", "us", "lower", 0.15, metrics.ALL, "a test metric")
    steady = {"value": 100.0, "repetitions": [99.0, 100.0, 101.0, 100.0]}
    slower = {"value": 120.0, "repetitions": [119.0, 120.0, 121.0, 120.0]}
    noisy = {"value": 120.0, "repetitions": [90.0, 120.0, 150.0, 121.0]}
    faster = {"value": 50.0, "repetitions": [40.0, 50.0, 60.0, 51.0]}
    assert compare.judge(lower, steady, steady, False)[0] == "ok"
    assert compare.judge(lower, steady, slower, False)[0] == "regression"
    assert compare.judge(lower, steady, noisy, False)[0] == "unresolved"
    assert compare.judge(lower, steady, faster, False)[0] == "ok"  # every run better
    counts = metrics.E2E["msgs_per_op"]
    assert compare.judge(counts, {"value": 4.0}, {"value": 4.1}, False)[0] == "ok"
    assert compare.judge(counts, {"value": 4.0}, {"value": 4.1}, True)[0] == "count-mismatch"
    fails = metrics.E2E["fail_share"]
    assert compare.judge(fails, {"value": 0.0}, {"value": 0.001}, False)[0] == "regression"
    higher = metrics.EndToEnd("rate", "1/s", "higher", 0.15, metrics.ALL, "a test metric")
    assert compare.worsening(higher, 100.0, 80.0) == 0.2
    assert compare.judge(higher, {"value": 100.0}, {"value": 80.0}, False)[0] == "regression"
