"""Tests for the run harness and configuration sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import (
    run_policies,
    run_standalone,
    run_workload,
)
from repro.experiments.sweep import sweep_configurations
from repro.policies import REGISTRY
from repro.schedulers.static import StaticScheduler
from repro.workloads.suite import WorkloadSpec

SMALL = WorkloadSpec(
    name="small",
    apps=("jacobi", "streamcluster", "srad", "hotspot"),
    include_kmeans=True,
    threads_per_app=2,
)


class TestRunWorkload:
    def test_produces_result(self):
        result = run_workload(SMALL, StaticScheduler(), work_scale=0.01)
        assert result.workload_name == "small"
        assert result.makespan_s > 0

    def test_deterministic(self):
        a = run_workload(SMALL, StaticScheduler(), work_scale=0.01, seed=1)
        b = run_workload(SMALL, StaticScheduler(), work_scale=0.01, seed=1)
        assert a.makespan_s == b.makespan_s

    def test_standard_policies_cover_paper(self):
        standard = {s.name for s in REGISTRY.tagged("standard")}
        assert standard == {"cfs", "dio", "dike", "dike-af", "dike-ap"}

    def test_run_policies_same_workload_build(self):
        results = run_policies(SMALL, work_scale=0.01)
        names = {r.policy_name for r in results.values()}
        assert names == {s.name for s in REGISTRY.tagged("standard")}
        # all runs see the same benchmarks
        benchset = {tuple(r.benchmark_names) for r in results.values()}
        assert len(benchset) == 1


class TestRunStandalone:
    def test_single_benchmark_only(self):
        result = run_standalone(SMALL, "jacobi", work_scale=0.01)
        assert result.benchmark_names == ("jacobi",)

    def test_no_migrations(self):
        result = run_standalone(SMALL, "jacobi", work_scale=0.01)
        assert result.migration_count == 0

    def test_standalone_faster_than_concurrent(self):
        solo = run_standalone(SMALL, "jacobi", work_scale=0.02)
        crowd = run_workload(SMALL, StaticScheduler(), work_scale=0.02)
        assert (
            solo.benchmark_named("jacobi").finish_time
            < crowd.benchmark_named("jacobi").finish_time
        )


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_configurations(
            SMALL,
            work_scale=0.01,
            quanta_choices=(0.2, 0.5),
            swap_choices=(2, 4),
        )

    def test_grid_shapes(self, sweep):
        assert sweep.fairness_grid.shape == (2, 2)
        assert sweep.speedup_grid.shape == (2, 2)
        assert np.isfinite(sweep.fairness_grid).all()

    def test_best_config_is_argmax(self, sweep):
        s, q, v = sweep.best_config("fairness")
        assert v == pytest.approx(np.nanmax(sweep.fairness_grid))
        assert s in sweep.swap_choices and q in sweep.quanta_choices

    def test_worst_leq_best(self, sweep):
        _, _, best = sweep.best_config("performance")
        _, _, worst = sweep.worst_config("performance")
        assert worst <= best

    def test_value_at(self, sweep):
        v = sweep.value_at(2, 0.2, "fairness")
        assert v == pytest.approx(sweep.fairness_grid[0, 0])

    def test_normalized_max_is_one(self, sweep):
        norm = sweep.normalized("fairness")
        assert np.nanmax(norm) == pytest.approx(1.0)

    def test_unknown_metric_rejected(self, sweep):
        with pytest.raises(ValueError):
            sweep.best_config("latency")

    def test_workload_class_carried(self, sweep):
        assert sweep.workload_class == "B"
