"""Tests for the scheduler interface and the spread placement."""

from __future__ import annotations

import pytest

from repro.schedulers.base import (
    SchedulingContext,
    Swap,
    ThreadInfo,
    spread_placement,
)
from repro.schedulers.static import StaticScheduler
from repro.sim.topology import xeon_e5_heterogeneous


def make_context(n_threads: int, topo=None) -> SchedulingContext:
    topo = topo or xeon_e5_heterogeneous()
    infos = tuple(
        ThreadInfo(tid=i, benchmark=f"b{i // 8}", group=i // 8, member=i % 8)
        for i in range(n_threads)
    )
    return SchedulingContext(topology=topo, threads=infos, seed=0)


class TestSwapAction:
    def test_self_swap_rejected(self):
        with pytest.raises(ValueError):
            Swap(tid_a=1, tid_b=1)

    def test_valid_swap(self):
        s = Swap(tid_a=1, tid_b=2)
        assert (s.tid_a, s.tid_b) == (1, 2)


class TestSpreadPlacement:
    def test_full_machine_one_thread_per_vcore(self, paper_topology):
        ctx = make_context(40, paper_topology)
        placement = spread_placement(ctx)
        assert len(set(placement.values())) == 40

    def test_physical_cores_before_smt(self, paper_topology):
        """With <= 20 threads no physical core should host two threads."""
        ctx = make_context(20, paper_topology)
        placement = spread_placement(ctx)
        phys = [paper_topology.vcore_physical[v] for v in placement.values()]
        assert len(set(phys)) == 20

    def test_sockets_interleaved(self, paper_topology):
        """Consecutive wake order alternates sockets (breadth-first), so an
        8-thread benchmark straddles fast and slow sockets."""
        ctx = make_context(8, paper_topology)
        placement = spread_placement(ctx)
        sockets = [
            int(paper_topology.vcore_socket[placement[t]]) for t in range(8)
        ]
        assert sockets.count(0) == 4
        assert sockets.count(1) == 4

    def test_deterministic(self, paper_topology):
        ctx = make_context(40, paper_topology)
        assert spread_placement(ctx) == spread_placement(ctx)

    def test_small_machine(self, small_topology):
        ctx = make_context(8, small_topology)
        placement = spread_placement(ctx)
        assert set(placement.values()) == set(range(8))


class TestSchedulerBase:
    def test_context_requires_prepare(self):
        sched = StaticScheduler()
        with pytest.raises(RuntimeError, match="prepare"):
            _ = sched.context

    def test_prepare_sets_context(self, paper_topology):
        sched = StaticScheduler()
        ctx = make_context(4, paper_topology)
        sched.prepare(ctx)
        assert sched.context is ctx

    def test_default_describe(self, paper_topology):
        sched = StaticScheduler()
        assert sched.describe()["policy"] == "static"

    def test_default_prediction_records_empty(self):
        assert StaticScheduler().drain_prediction_records() == ()
