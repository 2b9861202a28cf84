"""Integration tests of the simulation engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.schedulers.base import Move, Swap
from repro.schedulers.static import StaticScheduler
from repro.schedulers.random_policy import RandomSwapScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.migration import MigrationModel

from conftest import quick_run


class TestBasicExecution:
    def test_all_threads_finish(self, tiny_workload, small_topology):
        result = quick_run(tiny_workload, StaticScheduler(), small_topology)
        for b in result.benchmarks:
            assert all(math.isfinite(t) for t in b.thread_finish_times)

    def test_makespan_is_max_finish(self, tiny_workload, small_topology):
        result = quick_run(tiny_workload, StaticScheduler(), small_topology)
        expected = max(b.finish_time for b in result.benchmarks)
        assert result.makespan_s == pytest.approx(expected)

    def test_deterministic_given_seed(self, tiny_workload, small_topology):
        a = quick_run(tiny_workload, StaticScheduler(), small_topology, seed=5)
        b = quick_run(tiny_workload, StaticScheduler(), small_topology, seed=5)
        assert a.makespan_s == b.makespan_s
        assert a.benchmarks == b.benchmarks

    def test_seed_changes_outcome(self, tiny_workload, small_topology):
        a = quick_run(tiny_workload, StaticScheduler(), small_topology, seed=5)
        b = quick_run(tiny_workload, StaticScheduler(), small_topology, seed=6)
        assert a.makespan_s != b.makespan_s

    def test_more_work_takes_longer(self, tiny_workload, small_topology):
        a = quick_run(tiny_workload, StaticScheduler(), small_topology, work_scale=0.01)
        b = quick_run(tiny_workload, StaticScheduler(), small_topology, work_scale=0.02)
        assert b.makespan_s > a.makespan_s

    def test_truncation_flag(self, tiny_workload, small_topology):
        result = quick_run(
            tiny_workload, StaticScheduler(), small_topology,
            work_scale=1.0, max_time_s=1.0,
        )
        assert result.info["truncated"] is True
        assert any(
            not math.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )

    def test_quanta_counted(self, tiny_workload, small_topology):
        result = quick_run(tiny_workload, StaticScheduler(quantum_s=0.1), small_topology)
        assert result.n_quanta == pytest.approx(result.makespan_s / 0.1, abs=2)


class TestConstruction:
    @pytest.mark.parametrize("smt_efficiency", [0.05, 0.8, 1.0])
    def test_out_of_range_smt_efficiency_rejected_at_build(
        self, smt_efficiency, tiny_workload, small_topology
    ):
        # The SMT model adds up to 0.25 of a stalled sibling's share on
        # top of the base share, so only [0.1, 0.75] fits in one core.
        with pytest.raises(ValueError, match="smt_efficiency"):
            SimulationEngine(
                topology=small_topology,
                groups=tiny_workload.build(seed=1, work_scale=0.01),
                scheduler=StaticScheduler(),
                smt_efficiency=smt_efficiency,
            )

    def test_smt_efficiency_bounds_accepted(self, tiny_workload, small_topology):
        for smt_efficiency in (0.1, 0.75):
            result = quick_run(
                tiny_workload, StaticScheduler(), small_topology,
                smt_efficiency=smt_efficiency,
            )
            assert result.info["smt_efficiency"] == smt_efficiency


class TestPhysicalSanity:
    def test_fast_core_finishes_first_without_contention(self, small_topology):
        """A compute benchmark spread over fast+slow cores shows the freq gap."""
        from repro.workloads.suite import WorkloadSpec

        spec = WorkloadSpec(
            name="one", apps=("srad",), include_kmeans=False, threads_per_app=4
        )
        result = quick_run(spec, StaticScheduler(), small_topology, counter_noise=0.0)
        times = np.array(result.benchmarks[0].thread_finish_times)
        # spread placement puts 2 threads per socket; fast-socket threads
        # finish first and the gap reflects the 2x frequency ratio
        assert times.max() / times.min() > 1.3

    def test_contention_slows_memory_threads(self, small_topology):
        from repro.workloads.suite import WorkloadSpec

        solo = WorkloadSpec(
            name="solo", apps=("jacobi",), include_kmeans=False, threads_per_app=2
        )
        crowd = WorkloadSpec(
            name="crowd", apps=("jacobi", "stream_omp", "streamcluster"),
            include_kmeans=False, threads_per_app=2,
        )
        r_solo = quick_run(solo, StaticScheduler(fastest_first=True), small_topology)
        r_crowd = quick_run(crowd, StaticScheduler(), small_topology)
        t_solo = r_solo.benchmark_named("jacobi").finish_time
        t_crowd = r_crowd.benchmark_named("jacobi").finish_time
        assert t_crowd > t_solo

    def test_migration_overhead_slows_run(self, tiny_workload, small_topology):
        calm = quick_run(
            tiny_workload,
            RandomSwapScheduler(pairs_per_quantum=0),
            small_topology,
        )
        churn = quick_run(
            tiny_workload,
            RandomSwapScheduler(pairs_per_quantum=2),
            small_topology,
            migration=MigrationModel(swap_overhead_s=0.05, warmup_work=5e8),
        )
        assert churn.makespan_s > calm.makespan_s

    def test_counter_noise_zero_is_noiseless(self, tiny_workload, small_topology):
        a = quick_run(tiny_workload, StaticScheduler(), small_topology, counter_noise=0.0)
        b = quick_run(tiny_workload, StaticScheduler(), small_topology, counter_noise=0.0)
        assert a.makespan_s == b.makespan_s


class TestActions:
    def test_swap_exchanges_cores(self, tiny_workload, small_topology):
        class OneSwap(StaticScheduler):
            name = "one-swap"

            def __init__(self):
                super().__init__(quantum_s=0.05)
                self.done = False
                self.seen: list[dict[int, int]] = []

            def decide(self, counters, placement):
                self.seen.append(dict(placement))
                if not self.done and len(placement) >= 2:
                    self.done = True
                    tids = sorted(placement)[:2]
                    return [Swap(tid_a=tids[0], tid_b=tids[1])]
                return []

        sched = OneSwap()
        quick_run(tiny_workload, sched, small_topology)
        before = sched.seen[0]
        after = sched.seen[1]
        t0, t1 = sorted(before)[:2]
        assert after[t0] == before[t1]
        assert after[t1] == before[t0]

    def test_swap_counting(self, tiny_workload, small_topology):
        result = quick_run(
            tiny_workload, RandomSwapScheduler(pairs_per_quantum=1), small_topology
        )
        assert result.swap_count > 0
        assert result.migration_count == 2 * result.swap_count

    def test_move_to_invalid_core_rejected(self, tiny_workload, small_topology):
        class BadMove(StaticScheduler):
            def decide(self, counters, placement):
                return [Move(tid=next(iter(placement)), vcore=999)]

        with pytest.raises(ValueError, match="invalid vcore"):
            quick_run(tiny_workload, BadMove(), small_topology)

    def test_swap_unknown_thread_rejected(self, tiny_workload, small_topology):
        class BadSwap(StaticScheduler):
            def decide(self, counters, placement):
                return [Swap(tid_a=888, tid_b=999)]

        with pytest.raises(ValueError, match="unknown thread"):
            quick_run(tiny_workload, BadSwap(), small_topology)

    def test_double_migration_rejected(self, tiny_workload, small_topology):
        class DoubleMove(StaticScheduler):
            def decide(self, counters, placement):
                tid = next(iter(placement))
                other = [t for t in placement if t != tid][0]
                third = [t for t in placement if t not in (tid, other)][0]
                return [Swap(tid_a=tid, tid_b=other), Swap(tid_a=tid, tid_b=third)]

        with pytest.raises(ValueError, match="twice"):
            quick_run(tiny_workload, DoubleMove(), small_topology)


class TestCounters:
    def test_counters_reported_per_live_thread(self, tiny_workload, small_topology):
        class Recorder(StaticScheduler):
            def __init__(self):
                super().__init__(quantum_s=0.05)
                self.samples = []

            def decide(self, counters, placement):
                self.samples.append(counters)
                return []

        sched = Recorder()
        quick_run(tiny_workload, sched, small_topology)
        first = sched.samples[0]
        assert len(first.samples) == 4  # 2 apps x 2 threads
        for s in first.samples:
            assert s.instructions > 0
            assert s.llc_accesses > 0
            assert 0.0 <= s.miss_rate <= 1.0

    def test_core_bandwidth_only_on_occupied_cores(
        self, tiny_workload, small_topology
    ):
        class Recorder(StaticScheduler):
            def __init__(self):
                super().__init__(quantum_s=0.05)
                self.counters = None

            def decide(self, counters, placement):
                if self.counters is None:
                    self.counters = counters
                return []

        sched = Recorder()
        quick_run(tiny_workload, sched, small_topology)
        bw = sched.counters.core_bandwidth
        occupied = {s.vcore for s in sched.counters.samples}
        for v in range(small_topology.n_vcores):
            if v not in occupied:
                assert bw[v] == 0.0
