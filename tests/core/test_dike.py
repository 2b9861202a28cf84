"""Integration tests of the composed Dike scheduler."""

from __future__ import annotations

import math

import pytest

from repro.core.config import AdaptationGoal, DikeConfig
from repro.core.dike import DikeScheduler
from repro.policies import REGISTRY
from repro.metrics.fairness import fairness
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.static import StaticScheduler

from conftest import quick_run


class TestConstruction:
    def test_names(self):
        assert REGISTRY.build("dike").name == "dike"
        assert REGISTRY.build("dike-af").name == "dike-af"
        assert REGISTRY.build("dike-ap").name == "dike-ap"

    def test_goals(self):
        assert REGISTRY.build("dike").config.goal is AdaptationGoal.NONE
        assert REGISTRY.build("dike-af").config.goal is AdaptationGoal.FAIRNESS
        assert REGISTRY.build("dike-ap").config.goal is AdaptationGoal.PERFORMANCE

    def test_custom_config_carried(self):
        sched = REGISTRY.build("dike", {"swap_size": 4, "quanta_length_s": 0.2})
        assert sched.config.swap_size == 4
        assert sched.quantum_length_s() == 0.2

    def test_params_preserve_other_fields(self):
        sched = REGISTRY.build("dike-af", {"fairness_threshold": 0.25})
        assert sched.config.fairness_threshold == 0.25
        assert sched.config.goal is AdaptationGoal.FAIRNESS


class TestEndToEnd:
    def test_completes_and_swaps(self, small_workload, paper_topology):
        result = quick_run(
            small_workload, DikeScheduler(), paper_topology, work_scale=0.01
        )
        assert all(
            math.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )
        assert result.swap_count > 0

    def test_far_fewer_swaps_than_dio(self, small_workload, paper_topology):
        from repro.schedulers.dio import DIOScheduler

        r_dike = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.02)
        r_dio = quick_run(
            small_workload, DIOScheduler(), paper_topology, work_scale=0.02
        )
        assert r_dike.swap_count < 0.5 * r_dio.swap_count

    def test_improves_fairness_over_cfs(self, small_workload, paper_topology):
        r_dike = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.02)
        r_cfs = quick_run(
            small_workload, CFSScheduler(), paper_topology, work_scale=0.02
        )
        assert fairness(r_dike) > fairness(r_cfs)

    def test_prediction_records_produced(self, small_workload, paper_topology):
        result = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.01)
        assert len(result.predictions) > 0
        for rec in result.predictions[:20]:
            assert rec.predicted_rate >= 0
            assert rec.actual_rate > 0

    def test_reusable_across_runs(self, small_workload, paper_topology):
        sched = DikeScheduler()
        a = quick_run(small_workload, sched, paper_topology, work_scale=0.01)
        b = quick_run(small_workload, sched, paper_topology, work_scale=0.01)
        assert a.makespan_s == pytest.approx(b.makespan_s)
        assert a.swap_count == b.swap_count

    def test_deterministic(self, small_workload, paper_topology):
        a = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.01)
        b = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.01)
        assert a.makespan_s == b.makespan_s
        assert a.swap_count == b.swap_count


class TestAdaptation:
    def test_af_changes_config_at_runtime(self, small_workload, paper_topology):
        result = quick_run(
            small_workload, REGISTRY.build("dike-af"), paper_topology, work_scale=0.05
        )
        history = result.info["config_history"]
        assert len(history) > 1  # adapted at least once

    def test_ap_grows_quanta(self, small_workload, paper_topology):
        result = quick_run(
            small_workload, REGISTRY.build("dike-ap"), paper_topology, work_scale=0.05
        )
        history = result.info["config_history"]
        final_qlen = history[-1][2]
        assert final_qlen >= 0.5

    def test_non_adaptive_never_changes(self, small_workload, paper_topology):
        result = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.02)
        assert len(result.info["config_history"]) == 1

    def test_ap_swaps_fewer_than_af(self, small_workload, paper_topology):
        r_af = quick_run(small_workload, REGISTRY.build("dike-af"), paper_topology, work_scale=0.05)
        r_ap = quick_run(small_workload, REGISTRY.build("dike-ap"), paper_topology, work_scale=0.05)
        assert r_ap.swap_count < r_af.swap_count


class TestHighFairnessThresholdDisablesScheduling:
    def test_huge_threshold_acts_static(self, small_workload, paper_topology):
        """With θ_f enormous the system is always 'fair': no swaps at all."""
        sched = DikeScheduler(DikeConfig(fairness_threshold=9.9))
        result = quick_run(small_workload, sched, paper_topology, work_scale=0.01)
        assert result.swap_count == 0
