"""Tests for hierarchical Dike (`repro.core.hierarchical`).

The load-bearing properties: cluster partitions are disjoint,
socket-aligned and cover the machine; every live thread belongs to
exactly one cluster; the rebalancer never exceeds the global swap
budget (every flat-Dike invariant keeps holding); and with one cluster
the hierarchical pipeline is trace-identical to flat Dike.
"""

from __future__ import annotations

import pytest

from repro.core.hierarchical import (
    CLUSTER_SIGNALS,
    ClusterPartitioner,
    HierarchicalScheduler,
    InterClusterRebalancer,
)
from repro.obs.diff import diff_traces
from repro.obs.events import EventBus
from repro.obs.invariants import RULES, InvariantSink
from repro.policies import REGISTRY
from repro.schedulers.base import Placement
from repro.topologies import TOPOLOGY_REGISTRY
from repro.workloads.suite import WorkloadSpec


class ListSink:
    """Minimal in-memory sink: keeps every event object it sees."""

    def __init__(self) -> None:
        self.events = []

    def accept(self, event) -> None:
        self.events.append(event)


@pytest.fixture(scope="module")
def scale_topology():
    """8 sockets x 4 cores x SMT2 = 64 vcores, kept small for speed."""
    return TOPOLOGY_REGISTRY.build("scale256", {"cores_per_socket": 4})


@pytest.fixture(scope="module")
def scale_workload():
    return WorkloadSpec(
        name="hier-load",
        apps=("jacobi", "streamcluster", "srad", "hotspot", "needle", "lavaMD"),
        include_kmeans=False,
        threads_per_app=8,
    )


class TestClusterPartitioner:
    @pytest.mark.parametrize("n_clusters", [0, 1, 2, 3, 4, 8, 99])
    def test_partitions_disjoint_socket_aligned_and_covering(
        self, scale_topology, n_clusters
    ):
        part = ClusterPartitioner(scale_topology, n_clusters)
        assert 1 <= part.k <= scale_topology.n_sockets
        seen_vcores: set[int] = set()
        seen_sockets: set[int] = set()
        for run, vcores in zip(part.socket_runs, part.vcore_partitions):
            # socket-aligned: the partition is exactly its sockets' vcores
            expected = {
                v for sid in run for v in scale_topology.vcores_on_socket(sid)
            }
            assert set(vcores) == expected
            assert not (set(vcores) & seen_vcores)  # disjoint
            assert not (set(run) & seen_sockets)
            seen_vcores |= set(vcores)
            seen_sockets |= set(run)
        assert seen_vcores == set(range(scale_topology.n_vcores))  # covering
        assert seen_sockets == set(range(scale_topology.n_sockets))

    def test_every_placed_thread_in_exactly_one_cluster(self, scale_topology):
        part = ClusterPartitioner(scale_topology, 4)
        placement = Placement.of(
            {tid: (tid * 7) % scale_topology.n_vcores for tid in range(48)}
        )
        members = [placement.tids[rows].tolist() for rows in part.members(placement)]
        flat = [t for tids in members for t in tids]
        assert sorted(flat) == sorted(placement)  # exactly once each
        for idx, tids in enumerate(members):
            for tid in tids:
                assert part.vcore_cluster[placement[tid]] == idx

    def test_auto_is_one_cluster_per_socket(self, scale_topology):
        part = ClusterPartitioner(scale_topology, 0)
        assert part.k == scale_topology.n_sockets

    def test_negative_cluster_count_rejected(self, scale_topology):
        with pytest.raises(ValueError):
            ClusterPartitioner(scale_topology, -1)


class TestRebalancer:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            InterClusterRebalancer(period=0, threshold=0.2, signal="rate")
        with pytest.raises(ValueError):
            InterClusterRebalancer(period=10, threshold=-0.1, signal="rate")
        with pytest.raises(ValueError, match="signal"):
            InterClusterRebalancer(period=10, threshold=0.2, signal="vibes")
        assert set(CLUSTER_SIGNALS) == {"rate", "fairness"}

    def test_respects_spent_budget(self, scale_topology):
        """When the per-cluster decision already used the swap budget the
        rebalancer must contribute nothing (the budget is global)."""
        sched = REGISTRY.build("dike-hier")
        reb = InterClusterRebalancer(period=1, threshold=0.0, signal="rate")

        class Spent:
            n_pairs = 0  # budget exhausted

        out = reb.rebalance(
            members=[[0, 1], [2, 3]],
            placement=Placement.of({1: 0, 2: 1, 3: 2, 4: 3}),
            report=None,
            accepted=[],
            decider=None,
            config=Spent(),
            quantum_index=4,
            time_s=1.0,
        )
        assert out == []
        assert reb.n_rebalances == 0

    def test_off_period_quanta_do_nothing(self):
        reb = InterClusterRebalancer(period=10, threshold=0.0, signal="rate")
        for q in (0, 1, 9, 11, 19):
            assert reb.rebalance([[0], [1]], None, None, [], None, None, q, 0.0) == []

    def test_cluster_signal_adds_left_to_right(self):
        """The same mean on every interpreter: Python 3.12's builtin
        ``sum`` would give 1/3 here."""
        reb = InterClusterRebalancer(period=1, threshold=0.0, signal="rate")
        assert reb._signal([1e16, 1.0, -1e16]) == 0.0


class TestHierRuns:
    def test_zero_invariant_violations_under_load(
        self, run_quickly, scale_workload, scale_topology
    ):
        """The full contract (swap budget, cooldown, permutation, ...)
        holds for dike-hier on a multi-socket machine — rebalancer swaps
        draw from the same budget the rules police."""
        scheduler = REGISTRY.build(
            "dike-hier", {"rebalance_period": 2, "rebalance_threshold": 0.0}
        )
        bus = EventBus()
        sink = bus.attach(
            InvariantSink(swap_size=scheduler.config.swap_size, strict=True)
        )
        result = run_quickly(
            scale_workload, scheduler, scale_topology,
            work_scale=0.03, seed=11, bus=bus,
        )
        assert result.n_quanta > 2
        assert sink.ok
        assert set(sink.summary()) == set(RULES)
        assert all(count == 0 for count in sink.summary().values())

    def test_cluster_events_cover_live_threads(
        self, run_quickly, scale_workload, scale_topology
    ):
        bus = EventBus()
        sink = bus.attach(ListSink())
        run_quickly(
            scale_workload, REGISTRY.build("dike-hier"), scale_topology,
            work_scale=0.02, seed=3, bus=bus,
        )
        assigned = [e for e in sink.events if e.kind == "cluster_assigned"]
        assert assigned, "k > 1 runs must emit cluster_assigned"
        # Reconstruct the final membership per cluster; it must be a
        # partition: no thread in two clusters at once.
        latest: dict[int, tuple[int, ...]] = {}
        for ev in assigned:
            latest[ev.cluster] = ev.tids
        flat = [t for tids in latest.values() for t in tids]
        assert len(flat) == len(set(flat))

    def test_rebalances_are_counted_and_described(
        self, run_quickly, scale_workload, scale_topology
    ):
        scheduler = REGISTRY.build(
            "dike-hier", {"rebalance_period": 1, "rebalance_threshold": 0.0}
        )
        bus = EventBus()
        sink = bus.attach(ListSink())
        run_quickly(
            scale_workload, scheduler, scale_topology,
            work_scale=0.03, seed=11, bus=bus,
        )
        info = scheduler.describe()
        executed = [e for e in sink.events if e.kind == "rebalance_executed"]
        assert info["n_rebalances"] == len(executed)
        assert info["effective_clusters"] == scale_topology.n_sockets
        for ev in executed:
            assert ev.cluster_a != ev.cluster_b
            assert ev.signal_a >= ev.signal_b

    def test_one_cluster_is_trace_identical_to_flat_dike(
        self, run_quickly, small_workload, paper_topology
    ):
        """The correctness anchor: with an effective cluster count of 1
        the hierarchical stages reduce exactly to the flat path."""

        def trace(policy_name, params):
            bus = EventBus()
            sink = bus.attach(ListSink())
            run_quickly(
                small_workload, REGISTRY.build(policy_name, params),
                paper_topology, work_scale=0.02, seed=7, bus=bus,
            )
            return [e.to_dict() for e in sink.events]

        flat = trace("dike", {})
        hier = trace("dike-hier", {"n_clusters": 1})
        diff = diff_traces(flat, hier)
        assert diff.identical
        assert diff.n_events_a > 0

    def test_multi_cluster_diverges_from_flat(
        self, run_quickly, scale_workload, scale_topology
    ):
        """Sanity check on the gate above: with k > 1 the traces must
        actually differ (otherwise the equivalence test proves nothing)."""

        def n_swaps(policy_name, params):
            result = run_quickly(
                scale_workload, REGISTRY.build(policy_name, params),
                scale_topology, work_scale=0.03, seed=7,
            )
            return result.n_quanta, result.swap_count

        flat_q, flat_swaps = n_swaps("dike", {})
        hier_q, hier_swaps = n_swaps("dike-hier", {})
        assert flat_q > 1 and hier_q > 1
        assert (flat_q, flat_swaps) != (hier_q, hier_swaps)


class TestSchedulerSurface:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HierarchicalScheduler(n_clusters=-1)
        with pytest.raises(ValueError):
            HierarchicalScheduler(rebalance_period=0)
        with pytest.raises(ValueError):
            HierarchicalScheduler(cluster_signal="vibes")

    def test_registry_entries(self):
        for name, signal in (("dike-hier", "rate"), ("dike-hier-fair", "fairness")):
            sched = REGISTRY.build(name)
            assert isinstance(sched, HierarchicalScheduler)
            assert sched.cluster_signal == signal
            assert sched.describe()["cluster_signal"] == signal
