"""The metric registry, BENCHMARK.json and the driver's limits agree."""

import json
import re
from pathlib import Path

import metrics
import workloads

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in metrics.END_TO_END] + [m.name for m in metrics.PER_LAYER]
    names += list(workloads.WORKLOADS)
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
        assert set(metric.workloads) <= set(workloads.WORKLOADS), metric


def test_thirteen_end_to_end_metrics_and_the_contract_limits():
    assert len(metrics.END_TO_END) == 13
    gated = [m for m in metrics.END_TO_END if m.gated]
    assert 1 <= len(gated) <= 16
    assert all(0 < m.bound <= 0.25 for m in gated)
    assert all(set(m.workloads) == set(workloads.WORKLOADS) for m in gated)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in gated)
    assert max(m.bound for m in gated) == metrics.E2E["setup_s"].bound
    assert 2 <= len(workloads.WORKLOADS) <= 8
    assert 1 <= len(metrics.PER_LAYER) <= 128
    assert all(len(why) <= 200 and "\n" not in why for why in workloads.WHY.values())
    assert 1 <= metrics.RUN_SECONDS <= 60


def test_every_layer_metric_names_what_it_should_move():
    known = set(metrics.E2E) | {"none", "itself"}
    for layer in metrics.PER_LAYER:
        assert any(word in layer.moves for word in known), layer


def test_benchmark_json_is_the_registry():
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    assert len(text.encode("utf-8")) <= 64 * 1024
    document = json.loads(text)
    assert document == metrics.benchmark_json(workloads.WHY)
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["benchmarks/e2e"]
