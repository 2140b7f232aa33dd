"""Tests for the declarative scenario runner."""

from __future__ import annotations

import pytest

from repro.core.config import PGridConfig
from repro.errors import InvalidConfigError
from repro.sim.scenario import (
    KeyDistribution,
    ScenarioSpec,
    run_scenario,
)


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        n_peers=96,
        config=PGridConfig(maxl=4, refmax=3, recmax=2, recursion_fanout=2),
        items_per_peer=2,
        key_length=6,
        operations=200,
        update_fraction=0.2,
        seed=33,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_peers": 1},
            {"items_per_peer": -1},
            {"key_length": 0},
            {"p_online": 0.0},
            {"p_online": 1.5},
            {"operations": -1},
            {"update_fraction": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfigError):
            small_spec(**kwargs)

    def test_frozen(self):
        spec = small_spec()
        with pytest.raises(AttributeError):
            spec.n_peers = 5  # type: ignore[misc]


class TestRunScenario:
    def test_failure_free_scenario(self):
        metrics = run_scenario(small_spec())
        assert metrics.construction_exchanges > 0
        assert metrics.average_depth >= 0.99 * 4
        assert metrics.seeded_entries > 0
        assert metrics.searches + metrics.updates == 200
        assert metrics.search_success_rate == 1.0
        # Reads-after-update can miss even failure-free: a BFS update that
        # starts *at* a hard-to-find replica updates only that replica
        # (the paper's "not all replicas are as likely to be found").
        assert metrics.read_success_rate > 0.9
        assert metrics.update_coverage_mean > 0
        assert metrics.invariant_violations == 0

    def test_churned_scenario_degrades_gracefully(self):
        metrics = run_scenario(small_spec(p_online=0.3, operations=300))
        assert 0.3 < metrics.search_success_rate <= 1.0
        assert metrics.update_coverage_mean < 1.0

    def test_zipf_scenario(self):
        metrics = run_scenario(
            small_spec(
                key_distribution=KeyDistribution.ZIPF, zipf_exponent=1.2
            )
        )
        assert metrics.searches > 0
        assert metrics.search_success_rate > 0.9

    def test_zero_operations(self):
        metrics = run_scenario(small_spec(operations=0))
        assert metrics.searches == 0
        assert metrics.updates == 0
        assert metrics.search_messages_mean == 0.0

    def test_no_updates(self):
        metrics = run_scenario(small_spec(update_fraction=0.0))
        assert metrics.updates == 0
        assert metrics.reads_after_update == 0
        assert metrics.searches == 200

    def test_deterministic(self):
        a = run_scenario(small_spec())
        b = run_scenario(small_spec())
        assert a.as_dict() == b.as_dict()

    def test_as_dict_keys(self):
        metrics = run_scenario(small_spec(operations=20))
        payload = metrics.as_dict()
        assert payload["n_peers"] == 96
        assert set(payload) >= {
            "search_success_rate",
            "update_coverage_mean",
            "invariant_violations",
        }

    def test_churned_mixed_scenario_pinned(self):
        """``pgrid scenario --peers 256 --maxl 6 --refmax 3 --operations 1500
        --p-online 0.5 --update-fraction 0.3 --seed 3``, to the last digit.
        The means are float sums, so their summation order is pinned too."""
        metrics = run_scenario(
            ScenarioSpec(
                n_peers=256,
                config=PGridConfig(maxl=6, refmax=3, recmax=2, recursion_fanout=2),
                p_online=0.5,
                operations=1500,
                update_fraction=0.3,
                seed=3,
            )
        )
        assert metrics.as_dict() == {
            "n_peers": 256,
            "construction_exchanges": 11641,
            "average_depth": 5.94140625,
            "seeded_entries": 4914,
            "searches": 1080,
            "search_success_rate": 0.7953703703703704,
            "search_messages_mean": 3.1036088474970898,
            "updates": 420,
            "update_coverage_mean": 0.35043083900226735,
            "update_messages_mean": 4.726190476190476,
            "reads_after_update": 420,
            "read_success_rate": 0.7357142857142858,
            "invariant_violations": 0,
            "replica_conversions": 0,
            "misrouted_answers": 0,
        }
