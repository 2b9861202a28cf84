"""Tests for the baseline policies: CFS, static, random, DIO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.schedulers.base import Swap
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.dio import DIOScheduler
from repro.schedulers.random_policy import RandomSwapScheduler
from repro.schedulers.static import StaticScheduler
from repro.sim.counters import QuantumCounters, ThreadSample

from conftest import quick_run


def make_counters(miss_rates: dict[int, float], n_vcores: int = 8) -> QuantumCounters:
    samples = tuple(
        ThreadSample(
            tid=tid,
            vcore=tid % n_vcores,
            instructions=1e8,
            llc_accesses=1e7,
            llc_misses=1e7 * rate,
            runtime_s=0.5,
        )
        for tid, rate in miss_rates.items()
    )
    return QuantumCounters(
        quantum_index=0,
        time_s=0.5,
        quantum_length_s=0.5,
        samples=samples,
        core_bandwidth=np.zeros(n_vcores),
    )


class TestStatic:
    def test_never_migrates(self, tiny_workload, small_topology):
        result = quick_run(tiny_workload, StaticScheduler(), small_topology)
        assert result.migration_count == 0

    def test_fastest_first_placement(self, tiny_workload, small_topology):
        result = quick_run(
            tiny_workload, StaticScheduler(fastest_first=True), small_topology
        )
        assert result.migration_count == 0

    def test_explicit_placement_used(self, small_topology, tiny_workload):
        placement = {0: 4, 1: 5, 2: 6, 3: 7}
        sched = StaticScheduler(placement=placement)
        from repro.schedulers.base import SchedulingContext, ThreadInfo

        ctx = SchedulingContext(
            topology=small_topology,
            threads=tuple(ThreadInfo(i, "b", 0, i) for i in range(4)),
        )
        sched.prepare(ctx)
        assert sched.initial_placement() == placement


class TestCFS:
    def test_no_rebalance_while_every_core_busy(self, small_workload, paper_topology):
        """40 threads on 40 vcores: CFS sees balance and never migrates
        until benchmarks start finishing."""
        from repro.workloads.suite import workload

        result = quick_run(
            workload("wl1"), CFSScheduler(), paper_topology, work_scale=0.005
        )
        # migrations only happen as threads exit (SMT-crowded -> idle core)
        assert result.swap_count == 0

    def test_rebalances_to_idle_physical_cores(self, small_topology):
        """With 6 threads on an 8-vcore machine (4 physical cores), two
        physical cores host 2 threads... spread avoids that; instead test
        via an explicit crowded placement."""
        from repro.schedulers.base import SchedulingContext, ThreadInfo
        from repro.workloads.suite import WorkloadSpec

        spec = WorkloadSpec(
            name="t", apps=("srad",), include_kmeans=False, threads_per_app=4
        )
        groups = spec.build(seed=0, work_scale=0.01)

        class CrowdedCFS(CFSScheduler):
            # crowd all 4 threads onto vcores 0..3 (0,1 phys0; 2,3 phys1)
            def initial_placement(self):
                return {i: i for i in range(4)}

        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(
            topology=small_topology,
            groups=groups,
            scheduler=CrowdedCFS(),
            seed=0,
        )
        result = engine.run()
        assert result.migration_count > 0

    def test_quantum_is_rebalance_interval(self):
        assert CFSScheduler(rebalance_interval_s=0.25).quantum_length_s() == 0.25

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            CFSScheduler(rebalance_interval_s=0.0)


class TestRandom:
    def test_pair_count_respected(self, small_topology):
        sched = RandomSwapScheduler(pairs_per_quantum=2)
        from repro.schedulers.base import SchedulingContext, ThreadInfo

        ctx = SchedulingContext(
            topology=small_topology,
            threads=tuple(ThreadInfo(i, "b", 0, i) for i in range(8)),
        )
        sched.prepare(ctx)
        counters = make_counters({i: 0.1 for i in range(8)})
        actions = sched.decide(counters, {i: i for i in range(8)})
        assert len(actions) == 2
        tids = [t for a in actions for t in (a.tid_a, a.tid_b)]
        assert len(set(tids)) == 4  # disjoint pairs

    def test_zero_pairs_is_static(self, tiny_workload, small_topology):
        result = quick_run(
            tiny_workload, RandomSwapScheduler(pairs_per_quantum=0), small_topology
        )
        assert result.swap_count == 0

    def test_deterministic_per_seed(self, tiny_workload, small_topology):
        a = quick_run(tiny_workload, RandomSwapScheduler(pairs_per_quantum=1),
                      small_topology, seed=3)
        b = quick_run(tiny_workload, RandomSwapScheduler(pairs_per_quantum=1),
                      small_topology, seed=3)
        assert a.makespan_s == b.makespan_s


class TestDIO:
    def test_pairs_hottest_with_coldest(self, small_topology):
        sched = DIOScheduler()
        from repro.schedulers.base import SchedulingContext, ThreadInfo

        ctx = SchedulingContext(
            topology=small_topology,
            threads=tuple(ThreadInfo(i, "b", 0, i) for i in range(4)),
        )
        sched.prepare(ctx)
        counters = make_counters({0: 0.5, 1: 0.05, 2: 0.3, 3: 0.01})
        actions = sched.decide(counters, {i: i for i in range(4)})
        assert actions[0] == Swap(tid_a=0, tid_b=3)  # hottest <-> coldest
        assert actions[1] == Swap(tid_a=2, tid_b=1)

    def test_swaps_all_pairs_every_quantum(self, small_topology):
        sched = DIOScheduler()
        from repro.schedulers.base import SchedulingContext, ThreadInfo

        ctx = SchedulingContext(
            topology=small_topology,
            threads=tuple(ThreadInfo(i, "b", 0, i) for i in range(8)),
        )
        sched.prepare(ctx)
        counters = make_counters({i: 0.1 * i for i in range(8)})
        actions = sched.decide(counters, {i: i for i in range(8)})
        assert len(actions) == 4

    def test_odd_thread_count_leaves_middle(self, small_topology):
        sched = DIOScheduler()
        from repro.schedulers.base import SchedulingContext, ThreadInfo

        ctx = SchedulingContext(
            topology=small_topology,
            threads=tuple(ThreadInfo(i, "b", 0, i) for i in range(5)),
        )
        sched.prepare(ctx)
        counters = make_counters({i: 0.1 * (i + 1) for i in range(5)})
        actions = sched.decide(counters, {i: i for i in range(5)})
        assert len(actions) == 2
        swapped = {t for a in actions for t in (a.tid_a, a.tid_b)}
        assert len(swapped) == 4

    def test_max_pairs_cap(self, small_topology):
        sched = DIOScheduler(max_pairs=1)
        from repro.schedulers.base import SchedulingContext, ThreadInfo

        ctx = SchedulingContext(
            topology=small_topology,
            threads=tuple(ThreadInfo(i, "b", 0, i) for i in range(8)),
        )
        sched.prepare(ctx)
        counters = make_counters({i: 0.1 * i for i in range(8)})
        assert len(sched.decide(counters, {i: i for i in range(8)})) == 1

    def test_unsampled_threads_rank_coldest(self, small_topology):
        sched = DIOScheduler()
        from repro.schedulers.base import SchedulingContext, ThreadInfo

        ctx = SchedulingContext(
            topology=small_topology,
            threads=tuple(ThreadInfo(i, "b", 0, i) for i in range(4)),
        )
        sched.prepare(ctx)
        counters = make_counters({0: 0.5, 1: 0.2})  # 2,3 not sampled
        actions = sched.decide(counters, {i: i for i in range(4)})
        # hottest (0) pairs with an unsampled (coldest) thread
        assert actions[0].tid_a == 0
        assert actions[0].tid_b in (2, 3)

    def test_integration_churns(self, tiny_workload, small_topology):
        result = quick_run(tiny_workload, DIOScheduler(quantum_s=0.2), small_topology)
        # all pairs, every quantum: swap count ~ n_quanta * n_threads/2
        assert result.swap_count >= result.n_quanta - 2
