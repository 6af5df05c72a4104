"""Scenario → pipeline DAG compilation: structure, caching, dedup."""

import pytest

from repro.pipeline import ArtifactStore
from repro.scenario import (
    ScenarioConfig,
    ScenarioConfigError,
    comparison_pipeline,
    network_task_name,
    run_comparison,
    run_scenario,
    scenario_pipeline,
)


def _tiny(name: str, **overrides) -> ScenarioConfig:
    """A fast-to-run scenario over a 300-user corpus."""
    payload = {
        "name": name,
        "corpus": {"users": 300, "seed": 5},
        "epidemic": {"t_max_days": 30.0},
    }
    payload.update(overrides)
    return ScenarioConfig.from_dict(payload)


class TestPipelineShape:
    def test_single_scenario_compiles_to_four_nodes(self):
        config = _tiny("t")
        pipeline = scenario_pipeline(config)
        names = set(pipeline.names)
        assert names == {
            "corpus",
            "index",
            network_task_name(config),
            f"scenario-{config.name}",
        }

    def test_equivalent_configs_share_task_identities(self):
        stack = [
            {"kind": "travel_scaling", "factor": 0.5},
            {"kind": "mobility_restriction", "patches": ["Sydney"], "factor": 0.1},
        ]
        forward = _tiny("t", interventions=stack)
        backward = _tiny("t", interventions=stack[::-1])
        # Same canonical dict → same params → same cache key downstream.
        assert forward.to_dict() == backward.to_dict()
        assert network_task_name(forward) == network_task_name(backward)

    def test_comparison_dedupes_shared_network_nodes(self):
        members = (_tiny("a"), _tiny("b"))
        pipeline = comparison_pipeline(members)
        # One corpus, one index, ONE network (same world/model), two
        # scenario nodes and the compare join: six tasks total.
        assert len(pipeline.names) == 6
        assert "compare" in pipeline

    def test_comparison_keeps_distinct_network_nodes(self):
        members = (_tiny("a"), _tiny("b", model={"kind": "radiation"}))
        pipeline = comparison_pipeline(members)
        assert len(pipeline.names) == 7

    def test_comparison_needs_two_members(self):
        with pytest.raises(ScenarioConfigError, match="at least two"):
            comparison_pipeline((_tiny("a"),))

    def test_comparison_rejects_duplicate_names(self):
        with pytest.raises(ScenarioConfigError, match="duplicate scenario names"):
            comparison_pipeline((_tiny("a"), _tiny("a")))

    def test_comparison_rejects_mismatched_corpora(self):
        odd = _tiny("b").with_overrides(users=301)
        with pytest.raises(ScenarioConfigError, match="share one corpus"):
            comparison_pipeline((_tiny("a"), odd))


class TestCaching:
    def test_second_run_is_a_full_cache_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        config = _tiny("t")
        cold_result, cold = run_scenario(config, store=store)
        assert cold.manifest.executed == 4
        assert cold.manifest.ok

        warm_result, warm = run_scenario(config, store=store)
        assert warm.manifest.executed == 0
        assert warm.manifest.hits == 4
        assert warm_result.outputs["total_infected"] == cold_result.outputs["total_infected"]

    def test_scenarios_share_corpus_and_network_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _, first = run_scenario(_tiny("a"), store=store)
        assert first.manifest.executed == 4
        # Same world/model: only the scenario node itself runs.
        _, second = run_scenario(
            _tiny("b", interventions=[{"kind": "travel_scaling", "factor": 0.5}]),
            store=store,
        )
        assert second.manifest.executed == 1
        assert second.manifest.hits == 3

    def test_comparison_reuses_member_scenario_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        members = (
            _tiny("a"),
            _tiny("b", interventions=[{"kind": "travel_scaling", "factor": 0.5}]),
        )
        for member in members:
            run_scenario(member, store=store)

        comparison, run = run_comparison(members, store=store, jobs=2)
        # Everything but the join node is already cached.
        assert run.manifest.executed == 1
        assert run.manifest.hits == 5
        assert comparison.baseline.name == "a"
        assert [result.name for result in comparison.results] == ["a", "b"]

    def test_force_reexecutes_everything(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        config = _tiny("t")
        run_scenario(config, store=store)
        _, forced = run_scenario(config, store=store, force=True)
        assert forced.manifest.executed == 4
        assert forced.manifest.hits == 0
