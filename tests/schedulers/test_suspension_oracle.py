"""Tests for the suspension-based scheduler and the oracle static baseline."""

from __future__ import annotations

import pytest

from repro.metrics.fairness import fairness
from repro.metrics.performance import speedup
from repro.schedulers.base import Suspend
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.oracle import OracleStaticScheduler
from repro.schedulers.static import StaticScheduler
from repro.schedulers.suspension import SuspensionScheduler

from conftest import quick_run


class TestSuspendAction:
    def test_validation(self):
        with pytest.raises(ValueError):
            Suspend(tid=0, quanta=0)

    def test_engine_applies_suspension(self, tiny_workload, small_topology):
        class SuspendOnce(StaticScheduler):
            def __init__(self):
                super().__init__(quantum_s=0.05)
                self.done = False
                self.seen_idle = False

            def decide(self, counters, placement):
                for s in counters.samples:
                    if s.tid == 0 and s.instructions == 0.0:
                        self.seen_idle = True
                if not self.done:
                    self.done = True
                    return [Suspend(tid=0, quanta=2)]
                return []

        sched = SuspendOnce()
        result = quick_run(tiny_workload, sched, small_topology)
        assert sched.seen_idle  # the thread showed an idle perf window
        assert result.info["suspension_count"] == 1

    def test_suspension_delays_thread(self, tiny_workload, small_topology):
        class SuspendHard(StaticScheduler):
            def __init__(self):
                super().__init__(quantum_s=0.05)
                self.count = 0

            def decide(self, counters, placement):
                if 0 in placement and self.count < 10:
                    self.count += 1
                    return [Suspend(tid=0, quanta=1)]
                return []

        base = quick_run(tiny_workload, StaticScheduler(quantum_s=0.05), small_topology)
        slow = quick_run(tiny_workload, SuspendHard(), small_topology)
        t_base = [t for b in base.benchmarks for t in b.thread_finish_times][0]
        t_slow = [t for b in slow.benchmarks for t in b.thread_finish_times][0]
        assert t_slow > t_base

    def test_suspend_unknown_thread_rejected(self, tiny_workload, small_topology):
        class Bad(StaticScheduler):
            def decide(self, counters, placement):
                return [Suspend(tid=999)]

        with pytest.raises(ValueError, match="unknown thread"):
            quick_run(tiny_workload, Bad(), small_topology)


class TestSuspensionScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuspensionScheduler(quantum_s=0.0)
        with pytest.raises(ValueError):
            SuspensionScheduler(lead_threshold=1.5)

    def test_improves_fairness_over_static(self, small_workload, paper_topology):
        r_static = quick_run(
            small_workload, StaticScheduler(), paper_topology, work_scale=0.03
        )
        r_susp = quick_run(
            small_workload, SuspensionScheduler(), paper_topology, work_scale=0.03
        )
        assert fairness(r_susp) > fairness(r_static)
        assert r_susp.info["suspension_count"] > 0
        assert r_susp.migration_count == 0  # enforcement without migration

    def test_paper_claim_fair_but_slower_than_dike(
        self, small_workload, paper_topology
    ):
        """§III-E: suspension equalises but wastes cycles — Dike's
        migration-based enforcement must win on performance."""
        from repro.core.dike import DikeScheduler

        base = quick_run(
            small_workload, CFSScheduler(), paper_topology, work_scale=0.05
        )
        r_susp = quick_run(
            small_workload, SuspensionScheduler(), paper_topology, work_scale=0.05
        )
        r_dike = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.05)
        assert speedup(r_dike, base) > speedup(r_susp, base)


class TestOracleStatic:
    def test_never_migrates(self, small_workload, paper_topology):
        result = quick_run(
            small_workload, OracleStaticScheduler(), paper_topology, work_scale=0.03
        )
        assert result.migration_count == 0

    def test_memory_groups_on_fast_tier(self, small_workload, paper_topology):
        sched = OracleStaticScheduler()
        from repro.schedulers.base import SchedulingContext, ThreadInfo

        groups = small_workload.build(seed=0, work_scale=0.01)
        infos = tuple(
            ThreadInfo(t.tid, t.benchmark, t.group, t.member)
            for g in groups
            for t in g.threads
        )
        sched.prepare(SchedulingContext(topology=paper_topology, threads=infos))
        placement = sched.initial_placement()
        fast = paper_topology.max_freq_hz
        # jacobi (memory) threads land on fast cores
        jacobi_tids = [t.tid for g in groups if g.benchmark == "jacobi" for t in g.threads]
        for tid in jacobi_tids:
            assert paper_topology.vcore_freq_hz[placement[tid]] == fast

    def test_beats_cfs_fairness(self, small_workload, paper_topology):
        r_cfs = quick_run(
            small_workload, CFSScheduler(), paper_topology, work_scale=0.03
        )
        r_oracle = quick_run(
            small_workload, OracleStaticScheduler(), paper_topology, work_scale=0.03
        )
        assert fairness(r_oracle) > fairness(r_cfs)

    def test_dike_recovers_most_of_oracle_quality(
        self, small_workload, paper_topology
    ):
        """Dike, with zero a-priori knowledge, should land within ~10% of
        the cheating static optimum's fairness."""
        from repro.core.dike import DikeScheduler

        r_oracle = quick_run(
            small_workload, OracleStaticScheduler(), paper_topology, work_scale=0.15
        )
        r_dike = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.15)
        assert fairness(r_dike) > 0.9 * fairness(r_oracle)
