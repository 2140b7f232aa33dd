"""The benchmark end to end at ``--scale tiny``: every applicable metric
present and none extra, counts exact per seed, graceful degradation."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import metrics
import workloads

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
RUN = [sys.executable, str(E2E / "run.py")]


def run(*args, env=None, cwd=None):
    return subprocess.run([*RUN, *args], capture_output=True, text=True, timeout=600,
                          env=env, cwd=cwd)


@pytest.fixture(scope="module")
def two_tiny_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    documents = []
    for index in (1, 2):
        path = out / f"run{index}.json"
        done = run("--scale", "tiny", "--seed", "3", "--trace", "--out", str(path))
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        documents.append(json.loads(path.read_text(encoding="utf-8")))
    return documents


def test_all_six_run_clean_with_exactly_the_applicable_metrics(two_tiny_runs):
    document = two_tiny_runs[0]
    assert document["claim"] is None
    assert document["cross_checks"] == []
    assert set(document["environment"]) == {"cpu_count", "python", "numpy", "platform"}
    assert [r["workload"] for r in document["workloads"]] == list(workloads.WORKLOADS)
    for result in document["workloads"]:
        name = result["workload"]
        assert result["failed"] == 0 and result["end_to_end"]["fail_share"]["value"] == 0
        assert result["repetitions"] >= 3 and len(result["ops_sha256"]) == 64
        expected = {m.name for m in metrics.END_TO_END if name in m.workloads}
        assert set(result["end_to_end"]) == expected
        for row in result["end_to_end"].values():
            assert row["n"] >= 1 and row["unit"]
        layers = {m.name for m in metrics.PER_LAYER if name in m.workloads}
        nulls = set(result["notes"].get("null_layer_metrics", {}))
        assert set(result["per_layer"]) | nulls == layers, (
            name, layers ^ (set(result["per_layer"]) | nulls))
        assert (ROOT / result["span_file"]).is_file()
    by_name = {r["workload"]: r for r in document["workloads"]}
    assert by_name["engine_mixed"]["counts"] == by_name["node_mixed"]["counts"]
    assert by_name["node_mixed"]["notes"]["engine_twin_mismatches"]["search"] == 0
    zipf = by_name["engine_zipf"]["per_layer"]
    assert zipf["core.shortcuts.hit_rate"]["value"] > 0
    assert zipf["replication.conversions"]["value"] > 0
    assert by_name["build_snapshot"]["per_layer"]["fast.snapshot.shm_residue"]["value"] == 0


def test_counts_repeat_exactly_and_the_comparer_agrees(two_tiny_runs):
    first, second = two_tiny_runs
    for a, b in zip(first["workloads"], second["workloads"]):
        assert a["ops_sha256"] == b["ops_sha256"]
        assert a["counts"] == b["counts"]
        for metric in metrics.END_TO_END:
            if metric.exact and metric.name in a["end_to_end"]:
                assert a["end_to_end"][metric.name]["value"] == b["end_to_end"][metric.name]["value"]
    rows = compare.compare(first, second, exact_counts=True)
    assert rows and not [row for row in rows if row["status"] == "count-mismatch"]


def test_span_file_is_self_consistent(two_tiny_runs):
    result = two_tiny_runs[1]["workloads"][0]
    document = json.loads((ROOT / result["span_file"]).read_text(encoding="utf-8"))
    columns = document["columns"]
    parent, start, end = columns.index("parent"), columns.index("start_ns"), columns.index("end_ns")
    own = columns.index("self_ns")
    assert document["spans"]
    for row in document["spans"]:
        assert row[start] <= row[end] and 0 <= row[own] <= row[end] - row[start]
        assert row[parent] < len(document["spans"])
    assert "api.search" in document["timed"]


def test_single_workload_prints_the_contract_line():
    for trace, expected in (
        ("0", {m.name for m in metrics.END_TO_END if m.gated}),
        ("1", {m.name for m in metrics.PER_LAYER}),
    ):
        done = run("--workload", "tcp_search", "--seed", "4", "--seconds", "0.2",
                   "--trace", trace, "--scale", "tiny")
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == expected
        for value in line["metrics"].values():
            assert set(value) == {"value", "unit"} and isinstance(value["value"], (int, float))
        if trace == "0":
            assert all(value["value"] > 0 for value in line["metrics"].values())


def test_without_numpy_the_array_workloads_are_skipped_not_zero(tmp_path):
    (tmp_path / "numpy.py").write_text("raise ImportError('numpy is blocked for this test')\n")
    import os
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = tmp_path / "result.json"
    done = run("--scale", "tiny", "--seed", "3", "--out", str(out), env=env)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = {r["workload"]: r for r in json.loads(out.read_text())["workloads"]}
    for name in workloads.NEEDS_NUMPY:
        assert "numpy" in results[name]["skipped"] and "end_to_end" not in results[name]
    for name in set(workloads.WORKLOADS) - set(workloads.NEEDS_NUMPY):
        assert results[name]["failed"] == 0 and results[name]["end_to_end"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "engine_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def session_members(session: int) -> list[str]:
    """The processes of *session* still in ``/proc`` — zombies too: one
    there was not waited for by the process that started it."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == session:
                members.append(f"{entry.name} {fields[0]}")
        except (OSError, IndexError, ValueError):
            continue
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
def test_build_snapshot_leaves_no_process_behind():
    """Pool workers and multiprocessing's resource tracker have ended by
    the time ``run.py`` exits — the tracker used to outlive it."""
    pytest.importorskip("numpy")
    child = subprocess.Popen(
        [*RUN, "--workload", "build_snapshot", "--seed", "5", "--seconds", "0.2",
         "--trace", "1", "--scale", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=600)
    left = session_members(child.pid)
    assert child.returncode == 0, stderr[-2000:]
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is True
    assert left == []
