"""``benchmarks/pairs.py --expect unchanged`` judges every end-to-end metric.

Synthetic run records stand in for the benchmark processes, so the
verdict rule is exercised without running a workload.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "benchmarks/pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Ten steady runs per side: every metric equal on both sides.
STEADY = {"setup_s": 2.0, "ops_s": 1000.0, "search_ops_s": 900.0,
          "msgs_per_op": 3.5, "found_rate": 1.0, "peak_rss_mb": 60.0}


def _runs(overrides: dict[str, list[float]]) -> list[dict[str, float]]:
    return [{name: overrides.get(name, [value] * 10)[i] for name, value in STEADY.items()}
            for i in range(10)]


def _summary(pairs, parent: list[dict], change: list[dict]) -> dict:
    return {
        name: {side: {"runs": values, "quartiles": pairs.quartiles(values)}
               for side, values in (("parent", [run[name] for run in parent]),
                                    ("change", [run[name] for run in change]))}
        for name in STEADY
    }


def test_setup_regression_is_caught(pairs):
    change = _runs({"setup_s": [2.6] * 10})  # 30 % slower, bound 25 %
    verdicts = pairs.judge_unchanged(_summary(pairs, _runs({}), change), METRICS)
    assert verdicts["setup_s"] == "regressed"
    assert {v for name, v in verdicts.items() if name != "setup_s"} == {"unchanged"}


def test_wide_parent_spread_is_unresolved(pairs):
    parent = _runs({"setup_s": [1.0, 3.0] * 5})  # IQR 2.0 > 0.25 x median 2.0
    change = _runs({"setup_s": [1.1, 2.9] * 5})
    verdicts = pairs.judge_unchanged(_summary(pairs, parent, change), METRICS)
    assert verdicts["setup_s"] == "unresolved"
    assert verdicts["ops_s"] == "unchanged"


def test_wide_spread_with_every_change_run_better_is_unchanged(pairs):
    parent = _runs({"setup_s": [3.0, 5.0] * 5})
    change = _runs({"setup_s": [2.0, 2.9] * 5})
    verdicts = pairs.judge_unchanged(_summary(pairs, parent, change), METRICS)
    assert verdicts["setup_s"] == "unchanged"


@pytest.mark.parametrize("change_setup, expected_exit", [(2.0, 0), (2.6, 1)])
def test_main_exits_1_on_a_regression(pairs, monkeypatch, tmp_path, capsys,
                                      change_setup, expected_exit):
    def fake_run(checkout, command, args, out):
        setup = change_setup if checkout == tmp_path / "change" else 2.0
        values = dict(STEADY, setup_s=setup)
        return {"end_to_end": {name: {"value": v} for name, v in values.items()},
                "failed": 0, "violations": 0, "errors": []}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    code = pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--workload", "engine_mixed",
                       "--pairs", "2", "--expect", "unchanged",
                       "--out-dir", str(tmp_path / "out")])
    assert code == expected_exit
    verdict = "regressed" if expected_exit else "unchanged"
    assert f"setup_s: {verdict}" in capsys.readouterr().out
