"""Integration tests for the CLI."""

from __future__ import annotations

import pytest

from repro.api import Grid
from repro.cli import EXPERIMENTS, main
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.experiments import fig5_update_strategies
from repro.fast import HAVE_NUMPY
from repro.sim.builder import construct_grid


class TestBuild:
    def test_build_reports_and_snapshots(self, tmp_path, capsys):
        snapshot = tmp_path / "grid.json"
        code = main(
            [
                "build",
                "--peers", "64",
                "--maxl", "3",
                "--refmax", "2",
                "--seed", "1",
                "--snapshot", str(snapshot),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "violations: 0" in out
        assert snapshot.exists()

    def test_build_unbounded_fanout_flag(self, capsys):
        assert main(["build", "--peers", "32", "--maxl", "2", "--fanout", "0"]) == 0
        assert "converged=True" in capsys.readouterr().out

    def test_build_multi_trial_aggregate(self, capsys):
        code = main(
            ["build", "--peers", "32", "--maxl", "2", "--seed", "4",
             "--trials", "3", "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trial 0:" in out and "trial 2:" in out
        assert "aggregate over 3 trials:" in out
        assert "converged=3/3" in out

    def test_build_multi_trial_deterministic_across_jobs(self, capsys):
        argv = ["build", "--peers", "32", "--maxl", "2", "--seed", "4",
                "--trials", "2"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_build_multi_trial_rejects_snapshot(self, tmp_path, capsys):
        code = main(
            ["build", "--peers", "32", "--maxl", "2", "--trials", "2",
             "--snapshot", str(tmp_path / "grid.json")]
        )
        assert code == 2
        assert "single build" in capsys.readouterr().err

    @pytest.mark.skipif(not HAVE_NUMPY, reason="the batch engine needs numpy")
    def test_build_batch_core_is_deterministic(self, capsys):
        argv = ["build", "--peers", "120", "--maxl", "4", "--refmax", "3",
                "--seed", "6", "--core", "batch"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        result, violations = outputs[0].splitlines()[:2]
        assert result.startswith("converged=True exchanges=")
        assert violations == "routing invariant violations: 0"


def _small_pgrid() -> PGrid:
    grid = PGrid(PGridConfig(maxl=2, refmax=2))
    grid.add_peers(8)
    return grid


#: Every construction and experiment entry point that takes a core name.
ARRAY_CORE_CALLS = {
    "construct_grid": lambda: construct_grid(_small_pgrid(), engine="array"),
    "Grid.build": lambda: Grid.build(peers=8, maxl=2, core="array"),
    "fig5.run": lambda: fig5_update_strategies.run(core="array"),
    "pgrid build": lambda: main(["build", "--peers", "8", "--core", "array"]),
    "pgrid experiment": lambda: main(["experiment", "fig5", "--core", "array"]),
}


@pytest.mark.parametrize("entry", sorted(ARRAY_CORE_CALLS))
def test_array_names_no_core(entry, capsys):
    """Every entry point takes ``object | batch``; ``"array"`` is an
    unknown value, rejected by the existing validation."""
    if entry.startswith("pgrid"):
        with pytest.raises(SystemExit) as info:
            ARRAY_CORE_CALLS[entry]()
        assert info.value.code == 2
        assert "invalid choice: 'array'" in capsys.readouterr().err
    else:
        with pytest.raises(ValueError, match=r"'array'.*'object' or 'batch'"):
            ARRAY_CORE_CALLS[entry]()


class TestSearch:
    @pytest.fixture
    def snapshot(self, tmp_path):
        path = tmp_path / "grid.json"
        main(
            ["build", "--peers", "64", "--maxl", "4", "--refmax", "2",
             "--seed", "2", "--snapshot", str(path)]
        )
        return path

    def test_search_found(self, snapshot, capsys):
        code = main(["search", str(snapshot), "0101", "--start", "3"])
        assert code == 0
        assert "found=True" in capsys.readouterr().out

    def test_search_under_churn_may_fail_gracefully(self, snapshot, capsys):
        code = main(
            ["search", str(snapshot), "0101", "--p-online", "0.05",
             "--seed", "3"]
        )
        assert code in (0, 1)
        assert "found=" in capsys.readouterr().out


DRIVERS = ("engine", "node", "async")
#: The fault / retry / repair line of docs/RESILIENCE.md's CLI reference.
FAULTS = ["--p-online", "0.4", "--crash-fraction", "0.2", "--stale-fraction",
          "0.1", "--retry-attempts", "3", "--self-repair", "--evict-after", "2"]
CONDITIONS = {"plain": [], "churn": ["--p-online", "0.4"], "faults": FAULTS}
#: ``(condition, key) -> (result line, data lines)`` every driver prints
#: from ``--start 3`` on the seeded snapshot below.
EXPECTED = {
    ("plain", "0010"): (
        "found=True responder=61 messages=2 failed_attempts=0",
        ["  data: key=0010 holder=11 version=0"],
    ),
    ("plain", "1100"): (
        "found=True responder=46 messages=2 failed_attempts=0",
        ["  data: key=1100 holder=9 version=0"],
    ),
    ("churn", "0010"): (
        "found=False responder=None messages=2 failed_attempts=4", [],
    ),
    ("churn", "1100"): (
        "found=False responder=None messages=2 failed_attempts=4", [],
    ),
    ("faults", "0010"): (
        "found=False responder=None messages=2 failed_attempts=8", [],
    ),
    ("faults", "1100"): (
        "found=False responder=None messages=2 failed_attempts=8", [],
    ),
}
RANGE_EXPECTED = (
    "range=[0001, 0110] cover=0001,001,010,0110 responders=16 messages=19 "
    "failed_attempts=0",
    [
        "  data: key=0010 holder=11 version=0",
        "  data: key=0100 holder=13 version=0",
        "  data: key=0101 holder=7 version=0",
    ],
)


@pytest.fixture(scope="module")
def seeded_snapshot(tmp_path_factory):
    """A 64-peer snapshot whose index holds four keys."""
    from repro.core.storage import DataItem
    from repro.sim.persistence import load_grid, save_grid

    path = tmp_path_factory.mktemp("cli") / "grid.json"
    main(["build", "--peers", "64", "--maxl", "4", "--refmax", "2",
          "--seed", "2", "--snapshot", str(path)])
    grid = load_grid(path)
    grid.seed_index([
        (DataItem(key, key), holder)
        for key, holder in (("0101", 7), ("1100", 9), ("0010", 11), ("0100", 13))
    ])
    save_grid(grid, path)
    return path


def _result_block(out: str) -> tuple[str, list[str]]:
    """The result line and the ``data:`` lines of one search."""
    lines = out.splitlines()
    (result,) = [line for line in lines if line.startswith(("found=", "range="))]
    return result, [line for line in lines if line.startswith("  data:")]


class TestSearchServing:
    """Every driver prints the same answer for the same search."""

    @pytest.mark.parametrize("key", ["0010", "1100"])
    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_drivers_print_the_same_answer(
        self, seeded_snapshot, capsys, driver, condition, key
    ):
        code = main(["search", str(seeded_snapshot), key, "--start", "3",
                     "--driver", driver, *CONDITIONS[condition]])
        result, data = _result_block(capsys.readouterr().out)
        assert (result, data) == EXPECTED[condition, key]
        assert code == (0 if result.startswith("found=True") else 1)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_retry_backoff_printed_on_every_driver(
        self, seeded_snapshot, capsys, driver
    ):
        main(["search", str(seeded_snapshot), "0010", "--start", "3",
              "--driver", driver, *FAULTS])
        out = capsys.readouterr().out
        assert "retry backoff accrued: 4.00 time units" in out
        assert "crashed 13 peers" in out
        assert "corrupted 6 routing references" in out

    def test_range_query(self, seeded_snapshot, capsys):
        code = main(["search", str(seeded_snapshot), "0001", "--high", "0110",
                     "--start", "3"])
        assert _result_block(capsys.readouterr().out) == RANGE_EXPECTED
        assert code == 0

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_repair_line_on_every_driver(self, seeded_snapshot, capsys, driver):
        main(["search", str(seeded_snapshot), "0010", "--start", "3",
              "--driver", driver, *FAULTS])
        assert "repair: evictions=4 refills=4 messages=7" in capsys.readouterr().out

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_trace_dump_on_every_driver(self, seeded_snapshot, capsys, driver):
        main(["search", str(seeded_snapshot), "1100", "--start", "3",
              "--driver", driver, "--trace"])
        out = capsys.readouterr().out
        dump = out[out.index("trace:\n"):].splitlines()[1:]
        assert dump and all(line.startswith("  ") for line in dump)

    def test_range_query_takes_fault_and_trace_flags(self, seeded_snapshot, capsys):
        code = main(["search", str(seeded_snapshot), "0001", "--high", "0110",
                     "--start", "3", "--trace", *FAULTS])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "crashed 13 peers" in out
        for line in ("range=[0001, 0110]", "retry backoff accrued:",
                     "repair: evictions=", "trace:\n"):
            assert line in out

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("argv, message", [
        (["0101", "--start", "999"], "no peer registered under address 999"),
        (["01x1"], "invalid binary key: '01x1'"),
        (["01", "--high", "0110"], "equal length"),
        (["0001", "--high", "01x0"], "invalid binary key: '01x0'"),
    ], ids=["unknown-start", "malformed-key", "unequal-range", "malformed-high"])
    def test_bad_input_exits_2_with_one_line(
        self, seeded_snapshot, capsys, driver, argv, message
    ):
        code = main(["search", str(seeded_snapshot), *argv, "--driver", driver])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        if "--high" in argv and driver != "engine":
            message = "--high range queries need --driver engine"
        assert message in err


class TestAnalyze:
    def test_paper_example(self, capsys):
        code = main(
            ["analyze", "--d-global", "10000000", "--storage", "100000",
             "--p-online", "0.3", "--refmax", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "key length k        : 10" in out
        assert "min peers (eq. 2)   : 20409" in out


class TestExperiment:
    def test_registry_covers_all_paper_artifacts(self):
        assert {
            "table1", "table2", "table3", "table4", "table5",
            "fig4", "fig5", "search_reliability", "table6",
            "discussion_scaling", "analysis_example",
        } <= set(EXPERIMENTS)

    def test_run_analysis_example_and_save(self, tmp_path, capsys):
        code = main(
            ["experiment", "analysis_example", "--save", str(tmp_path)]
        )
        assert code == 0
        assert "analysis_example" in capsys.readouterr().out
        assert (tmp_path / "analysis_example.csv").exists()
        assert (tmp_path / "analysis_example.json").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestInfo:
    def test_info_dumps_statistics(self, tmp_path, capsys):
        snapshot = tmp_path / "grid.json"
        main(
            ["build", "--peers", "48", "--maxl", "3", "--refmax", "2",
             "--seed", "4", "--snapshot", str(snapshot)]
        )
        capsys.readouterr()
        assert main(["info", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "peers               : 48" in out
        assert "invariant violations: 0" in out
        assert "peers per path length" in out


#: ``pgrid scenario`` on one grid under three replication settings; the
#: values were captured before the scenario's engines came from the facade,
#: the ``sqrt`` row again once a conversion's hand-over probed its buddies
#: (at ``--p-online 0.5`` each probe draws an availability coin).
SCENARIO_ARGS = ["--peers", "128", "--maxl", "4", "--refmax", "3",
                 "--operations", "600", "--zipf", "1.2", "--seed", "3"]
SCENARIO_CONFIGS = {
    "adaptive": ["--replication", "adaptive", "--replicate-threshold", "1.0"],
    "sqrt": ["--replication", "sqrt", "--p-online", "0.5"],
    "none": [],
}
#: search_success_rate, search_messages_mean, update_coverage_mean,
#: update_messages_mean, read_success_rate, invariant_violations,
#: replica_conversions, misrouted_answers
SCENARIO_EXPECTED = {
    "adaptive": ("1.0000", "1.7153", "0.2917", "5.7797", "0.6780", "0", "44", "0"),
    "sqrt": ("0.8281", "1.7299", "0.0957", "2.1864", "0.4237", "0", "42", "0"),
    "none": ("1.0000", "2.1183", "0.4180", "7.5085", "0.8644", "0", "0", "0"),
}


def _scenario_text(values: tuple[str, ...]) -> str:
    rows = [
        ("n_peers", "128"), ("construction_exchanges", "3418"),
        ("average_depth", "3.9609"), ("seeded_entries", "5217"),
        ("searches", "541"), ("search_success_rate", values[0]),
        ("search_messages_mean", values[1]), ("updates", "59"),
        ("update_coverage_mean", values[2]), ("update_messages_mean", values[3]),
        ("reads_after_update", "59"), ("read_success_rate", values[4]),
        ("invariant_violations", values[5]), ("replica_conversions", values[6]),
        ("misrouted_answers", values[7]),
    ]
    return "".join(f"{name:<26}: {value}\n" for name, value in rows)


class TestScenario:
    @pytest.mark.parametrize("config", sorted(SCENARIO_CONFIGS))
    def test_scenario_output_pinned(self, capsys, config):
        code = main(["scenario", *SCENARIO_ARGS, *SCENARIO_CONFIGS[config]])
        assert code == 0
        assert capsys.readouterr().out == _scenario_text(SCENARIO_EXPECTED[config])

    def test_scenario_prints_metrics(self, capsys):
        code = main(
            ["scenario", "--peers", "80", "--maxl", "4", "--refmax", "3",
             "--operations", "100", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "search_success_rate" in out
        assert "invariant_violations" in out

    def test_scenario_zipf_flag(self, capsys):
        code = main(
            ["scenario", "--peers", "60", "--maxl", "3", "--operations",
             "50", "--zipf", "1.2", "--p-online", "0.5"]
        )
        assert code == 0
        assert "update_coverage_mean" in capsys.readouterr().out


class TestStats:
    def test_stats_multi_trial_merged_registry(self, capsys):
        code = main(
            ["stats", "--peers", "64", "--maxl", "3", "--refmax", "2",
             "--operations", "60", "--seed", "9",
             "--trials", "2", "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "merged metrics for 2 trials" in out
        assert "trial 0:" in out and "trial 1:" in out

    def test_stats_trials_validated(self, capsys):
        assert main(["stats", "--trials", "0"]) == 2
        assert "--trials" in capsys.readouterr().err


class TestReport:
    def test_report_combines_experiments(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            ["report", "--experiments", "analysis_example", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# P-Grid reproduction report")
        assert "## analysis_example" in text
        assert "20409" in text
