"""Tests for the composable stage pipeline and the Dike ablations."""

from __future__ import annotations

import pytest

from repro.core.dike import (
    DIKE_STAGES,
    NO_DECIDER_STAGES,
    NO_PREDICTOR_STAGES,
    AcceptAllStage,
    DikeScheduler,
    PersistencePredictorStage,
)
from repro.policies import REGISTRY
from repro.schedulers.pipeline import Stage, StageState

from conftest import quick_run


class TestDikeStageList:
    def test_paper_pipeline_order(self):
        names = tuple(s.name for s in DIKE_STAGES)
        assert names == (
            "observer",
            "optimizer",
            "selector",
            "predictor",
            "decider",
            "migrator",
        )

    def test_no_predictor_swaps_one_stage(self):
        assert tuple(s.name for s in NO_PREDICTOR_STAGES) == tuple(
            s.name for s in DIKE_STAGES
        )
        replaced = [
            s for s in NO_PREDICTOR_STAGES if isinstance(s, PersistencePredictorStage)
        ]
        assert len(replaced) == 1
        # Every other stage object is shared with the reference pipeline.
        assert sum(a is b for a, b in zip(NO_PREDICTOR_STAGES, DIKE_STAGES)) == 5

    def test_no_decider_swaps_one_stage(self):
        replaced = [s for s in NO_DECIDER_STAGES if isinstance(s, AcceptAllStage)]
        assert len(replaced) == 1
        assert sum(a is b for a, b in zip(NO_DECIDER_STAGES, DIKE_STAGES)) == 5

    def test_scheduler_defaults_to_dike_stages(self):
        assert DikeScheduler().stages is DIKE_STAGES

    def test_describe_lists_stages(self):
        desc = DikeScheduler().describe()
        assert tuple(desc["stages"]) == tuple(s.name for s in DIKE_STAGES)


class TestStagePipelineContract:
    def test_requires_at_least_one_stage(self):
        with pytest.raises(ValueError):
            DikeScheduler(stages=())

    def test_stage_is_abstract(self):
        with pytest.raises(TypeError):
            Stage()  # run() is abstract

    def test_stage_state_defaults(self):
        state = StageState(counters=None, placement={})
        assert state.actions == ()
        assert state.report is None


class TestAblationSchedulers:
    def test_no_predictor_runs(self, tiny_workload, small_topology):
        result = quick_run(
            tiny_workload, REGISTRY.build("dike-no-predictor"), small_topology
        )
        assert result.makespan_s > 0

    def test_no_decider_runs(self, tiny_workload, small_topology):
        result = quick_run(
            tiny_workload, REGISTRY.build("dike-no-decider"), small_topology
        )
        assert result.makespan_s > 0

    def test_no_decider_churns_more(self, tiny_workload, small_topology):
        # Without the decider's cooldown and profit veto, every selected
        # pair swaps every quantum — strictly more churn than full Dike on
        # the same deterministic run.
        dike = quick_run(
            tiny_workload, REGISTRY.build("dike"), small_topology, work_scale=0.05
        )
        no_dec = quick_run(
            tiny_workload,
            REGISTRY.build("dike-no-decider"),
            small_topology,
            work_scale=0.05,
        )
        assert no_dec.migration_count > dike.migration_count
