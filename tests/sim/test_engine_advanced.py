"""Advanced engine integration: barriers, conservation, traces, suspension."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.schedulers.dio import DIOScheduler
from repro.schedulers.static import StaticScheduler
from repro.sim.engine import SimulationEngine
from repro.workloads.suite import WorkloadSpec

from conftest import quick_run


class TestKmeansBarriers:
    @pytest.fixture(scope="class")
    def result(self, request):
        topo = request.getfixturevalue("small_topology")
        spec = WorkloadSpec(
            name="km", apps=("srad",), include_kmeans=True, threads_per_app=3
        )
        return quick_run(spec, StaticScheduler(quantum_s=0.05), topo, work_scale=0.02)

    def test_kmeans_threads_finish_together(self, result):
        """Barrier coupling forces near-simultaneous completion."""
        times = np.array(result.benchmark_named("kmeans").thread_finish_times)
        assert (times.max() - times.min()) / times.mean() < 0.05

    def test_kmeans_slower_than_barrier_free_equivalent(self, small_topology):
        """Barriers cost waiting time relative to the same trace without."""
        spec_b = WorkloadSpec(
            name="with", apps=("srad",), include_kmeans=True, threads_per_app=3
        )
        r_with = quick_run(spec_b, StaticScheduler(), small_topology, work_scale=0.02)
        # rebuild kmeans without barriers via a custom spec
        from repro.workloads.benchmark import BenchmarkSpec, instantiate
        from repro.workloads.rodinia import kmeans as kmeans_factory
        from repro.sim.process import ProcessGroup

        km = kmeans_factory()
        free = BenchmarkSpec(
            km.name, km.intensity, km.build_trace,
            n_threads=3, barrier_fractions=(),
        )
        groups = spec_b.build(seed=7, work_scale=0.02)
        groups[-1] = instantiate(free, groups[-1].group_id,
                                 groups[-1].threads[0].tid, 7, 0.02)
        engine = SimulationEngine(
            topology=small_topology, groups=groups,
            scheduler=StaticScheduler(), seed=7, workload_name="free",
        )
        r_free = engine.run()
        t_with = r_with.benchmark_named("kmeans").finish_time
        t_free = r_free.benchmark_named("kmeans").finish_time
        assert t_with >= t_free * 0.999


class TestWorkConservation:
    def test_completed_work_equals_trace_totals(self, tiny_workload, small_topology):
        groups = tiny_workload.build(seed=3, work_scale=0.01)
        totals = {t.tid: t.trace.total_work for g in groups for t in g.threads}
        engine = SimulationEngine(
            topology=small_topology, groups=groups,
            scheduler=StaticScheduler(), seed=3, workload_name="t",
        )
        engine.run()
        for g in groups:
            for t in g.threads:
                assert engine.state.work_done[t.tid] == pytest.approx(
                    totals[t.tid], rel=1e-9
                )

    def test_churn_does_not_create_or_destroy_work(
        self, tiny_workload, small_topology
    ):
        groups = tiny_workload.build(seed=3, work_scale=0.01)
        engine = SimulationEngine(
            topology=small_topology, groups=groups,
            scheduler=DIOScheduler(quantum_s=0.1), seed=3, workload_name="t",
        )
        engine.run()
        for g in groups:
            for t in g.threads:
                assert engine.state.work_done[t.tid] == pytest.approx(
                    t.trace.total_work, rel=1e-9
                )


class TestTraceIntegrity:
    @pytest.fixture(scope="class")
    def traced(self, request):
        topo = request.getfixturevalue("small_topology")
        spec = request.getfixturevalue("tiny_workload")
        return quick_run(
            spec, DIOScheduler(quantum_s=0.1), topo,
            work_scale=0.01, record_timeseries=True,
        )

    def test_times_strictly_increasing(self, traced):
        times = np.asarray(traced.trace.times)
        assert (np.diff(times) > 0).all()

    def test_swap_events_match_count(self, traced):
        assert traced.trace.n_swaps == traced.swap_count

    def test_assignments_follow_swaps(self, traced):
        """After a swap event the next assignment snapshot reflects it."""
        trace = traced.trace
        ev = trace.swap_events[0]
        after = trace.assignments[ev.quantum_index + 1]
        # SwapEvent stores each thread's *destination* core
        assert after[ev.tid_a] == ev.vcore_a
        assert after[ev.tid_b] == ev.vcore_b

    def test_access_rates_recorded_for_live_threads(self, traced):
        first = traced.trace.access_rates[0]
        assert len(first) == 4

    def test_utilization_bounded(self, traced):
        u = np.asarray(traced.trace.utilization)
        assert (u >= 0).all() and (u <= 1.0).all()


class TestOversubscription:
    def test_more_threads_than_cores(self, small_topology):
        """12 threads on 8 vcores: vcore time-sharing engages, all finish."""
        spec = WorkloadSpec(
            name="over", apps=("jacobi", "srad", "hotspot"),
            include_kmeans=True, threads_per_app=3,
        )
        result = quick_run(spec, StaticScheduler(), small_topology, work_scale=0.005)
        assert all(
            math.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )

    def test_single_thread_machine_wide(self, small_topology):
        spec = WorkloadSpec(
            name="one", apps=("jacobi",), include_kmeans=False, threads_per_app=1
        )
        result = quick_run(spec, StaticScheduler(), small_topology, work_scale=0.01)
        assert result.benchmarks[0].finish_time > 0
