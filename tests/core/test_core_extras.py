"""Extra core-module tests: Migrator, IPC metric, prediction bookkeeping."""

from __future__ import annotations

import pytest

from repro.core.config import DikeConfig
from repro.core.dike import DikeScheduler
from repro.core.migrator import Migrator
from repro.core.observer import Observer
from repro.core.predictor import PairPrediction
from repro.core.selector import ThreadPair
from repro.schedulers.base import Swap

from test_observer import make_counters


class TestMigrator:
    def test_one_swap_per_accepted_pair(self):
        preds = [
            PairPrediction(ThreadPair(0, 1), 1.0, 1.0, 2.0, 1.0, 1.0, 2.0),
            PairPrediction(ThreadPair(2, 3), 1.0, 1.0, 2.0, 1.0, 1.0, 2.0),
        ]
        actions = Migrator().build_actions(preds)
        assert actions == [Swap(0, 1), Swap(2, 3)]

    def test_empty(self):
        assert Migrator().build_actions([]) == []


class TestIpcMetric:
    def test_ipc_metric_changes_sort_signal(self):
        """With contention_metric='ipc' the report's rate column holds
        instruction rates instead of memory rates."""
        obs_rate = Observer(DikeConfig(), n_vcores=8)
        obs_ipc = Observer(DikeConfig(contention_metric="ipc"), n_vcores=8)
        counters = make_counters({0: (0, 2e6, 0.4)})
        r_rate = obs_rate.update(counters)
        r_ipc = obs_ipc.update(counters)
        assert r_rate.rate_of(0) == pytest.approx(2e6)
        # ips = instructions / runtime = 1e8 / 0.5
        assert r_ipc.rate_of(0) == pytest.approx(2e8)

    def test_invalid_metric_rejected(self):
        with pytest.raises(ValueError):
            DikeConfig(contention_metric="cache-misses")

    def test_ipc_dike_still_runs(self):
        from repro.experiments.runner import run_workload
        from repro.workloads.suite import WorkloadSpec

        spec = WorkloadSpec(
            name="t", apps=("jacobi", "srad"), include_kmeans=False,
            threads_per_app=2,
        )
        sched = DikeScheduler(DikeConfig(contention_metric="ipc"))
        result = run_workload(spec, sched, work_scale=0.02)
        assert result.n_quanta > 0


class TestPredictionBookkeeping:
    def test_every_live_thread_gets_predicted(self):
        """Persistence predictions cover all running threads, not only
        swapped ones (the Figure 7 error is over *running threads*)."""
        from repro.experiments.runner import run_workload
        from repro.workloads.suite import WorkloadSpec

        spec = WorkloadSpec(
            name="t", apps=("jacobi", "srad"), include_kmeans=False,
            threads_per_app=2,
        )
        result = run_workload(spec, DikeScheduler(), work_scale=0.02)
        tids = {r.tid for r in result.predictions}
        assert len(tids) == 4  # every thread appears in the error records

    def test_predictions_reference_past_quanta(self):
        from repro.experiments.runner import run_workload
        from repro.workloads.suite import WorkloadSpec

        spec = WorkloadSpec(
            name="t", apps=("jacobi",), include_kmeans=False, threads_per_app=2
        )
        result = run_workload(spec, DikeScheduler(), work_scale=0.02)
        for r in result.predictions:
            assert 0 <= r.quantum_index < result.n_quanta
