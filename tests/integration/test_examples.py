"""Smoke tests for the example scripts (the fast ones).

Every example must stay runnable — these execute the quick ones end to end
as subprocesses and sanity-check their output.  The slower examples
(file_sharing, timeline, ...) exercise the same code paths already
covered by the experiment runners; running them here would double the
suite's wall-clock for no new coverage.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: float = 120.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "constructed:" in out
        assert "found=True" in out
        assert "routing invariant violations: 0" in out

    def test_capacity_planning(self):
        out = run_example("capacity_planning.py")
        assert "(paper: 10)" in out
        assert "20409" in out

    def test_range_queries(self):
        out = run_example("range_queries.py")
        assert "ground truth" in out
        # every reported range must match its ground truth exactly
        for line in out.splitlines():
            if "ground truth:" in line:
                reported = int(line.split(" readings in")[0].split()[-1])
                truth = int(line.rstrip(")").split("ground truth: ")[-1])
                assert reported == truth, line

    def test_examples_all_present(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert names >= {
            "quickstart.py",
            "file_sharing.py",
            "update_consistency.py",
            "capacity_planning.py",
            "text_prefix_search.py",
            "self_organization.py",
            "range_queries.py",
            "timeline.py",
        }

    @pytest.mark.parametrize(
        "name",
        [path.name for path in sorted(EXAMPLES_DIR.glob("*.py"))],
    )
    def test_examples_compile(self, name):
        source = (EXAMPLES_DIR / name).read_text(encoding="utf-8")
        compile(source, name, "exec")
