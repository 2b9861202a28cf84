"""Tests for the cache-aware policies (`repro.core.cache_aware`)."""

from __future__ import annotations

import pytest

from repro.core.cache_aware import (
    BLISS_STAGES,
    LFOC_STAGES,
    Blacklister,
    BLISSScheduler,
    BlacklistSelectorStage,
    CacheClusterer,
    ClusteredSelectorStage,
    LFOCScheduler,
)
from repro.core.config import DikeConfig
from repro.core.dike import DIKE_STAGES, SelectorStage
from repro.core.observer import ObserverReport
from repro.core.selector import Selector
from repro.obs.events import CacheClusterFormed, EventBus
from repro.schedulers.base import Placement


def make_report(
    rates: dict[int, float],
    classes: dict[int, str],
    high_cores: set[int] = frozenset(),
    fairness: float = 1.0,
) -> ObserverReport:
    return ObserverReport(
        access_rate=dict(rates),
        miss_rate={t: (0.4 if c == "M" else 0.05) for t, c in classes.items()},
        classification=dict(classes),
        core_bw={c: (2e6 if c in high_cores else 5e5) for c in range(16)},
        high_bw_cores=frozenset(high_cores),
        fairness=fairness,
        demand_estimate=dict(rates),
    )


class _Collector:
    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)

    def close(self):
        pass


class TestStageSubstitution:
    def test_lfoc_replaces_only_the_selector(self):
        assert len(LFOC_STAGES) == len(DIKE_STAGES)
        for ours, base in zip(LFOC_STAGES, DIKE_STAGES):
            if isinstance(base, SelectorStage):
                assert isinstance(ours, ClusteredSelectorStage)
            else:
                assert ours is base

    def test_bliss_replaces_only_the_selector(self):
        assert len(BLISS_STAGES) == len(DIKE_STAGES)
        for ours, base in zip(BLISS_STAGES, DIKE_STAGES):
            if isinstance(base, SelectorStage):
                assert isinstance(ours, BlacklistSelectorStage)
            else:
                assert ours is base

    def test_replacement_stages_keep_the_name(self):
        assert ClusteredSelectorStage.name == SelectorStage.name == "selector"
        assert BlacklistSelectorStage.name == "selector"


class TestCacheClusterer:
    def test_partition_contiguous_by_rate(self):
        clusterer = CacheClusterer(n_clusters=2)
        report = make_report(
            {0: 4e6, 1: 1e6, 2: 3e6, 3: 2e6},
            {0: "M", 1: "C", 2: "M", 3: "C"},
        )
        placement = Placement.of({0: 0, 1: 1, 2: 2, 3: 3})
        clusters = clusterer.partition(report, placement)
        # sorted by rate, split in half
        assert [placement.tids[rows].tolist() for rows in clusters] == [[1, 3], [2, 0]]

    def test_partition_never_makes_singleton_clusters(self):
        clusterer = CacheClusterer(n_clusters=3)
        report = make_report(
            {0: 1e6, 1: 2e6, 2: 3e6}, {0: "C", 1: "C", 2: "M"}
        )
        clusters = clusterer.partition(report, Placement.of({0: 0, 1: 1, 2: 2}))
        # 3 threads support at most one 2+-member cluster boundary: k=1.
        assert len(clusters) == 1

    def test_partition_too_few_threads(self):
        clusterer = CacheClusterer(n_clusters=2)
        report = make_report({0: 1e6}, {0: "C"})
        assert clusterer.partition(report, Placement.of({0: 0})) == []

    def test_fair_system_selects_nothing(self):
        clusterer = CacheClusterer(n_clusters=2)
        report = make_report(
            {0: 1e6, 1: 2e6}, {0: "C", 1: "M"}, fairness=0.01
        )
        config = DikeConfig()
        pairs = clusterer.select(
            report, Placement.of({0: 0, 1: 1}), Selector(config), config
        )
        assert pairs == []

    def test_pairs_only_within_clusters(self):
        # Two clear intensity classes; with 2 clusters every selected
        # pair must stay inside one class.
        clusterer = CacheClusterer(n_clusters=2)
        rates = {0: 1e5, 1: 2e5, 2: 8e6, 3: 9e6}
        report = make_report(
            rates, {0: "C", 1: "C", 2: "M", 3: "M"}, high_cores={0, 1}
        )
        config = DikeConfig()
        pairs = clusterer.select(
            report, Placement.of({0: 0, 1: 1, 2: 4, 3: 5}), Selector(config), config
        )
        light, heavy = {0, 1}, {2, 3}
        for p in pairs:
            members = {p.t_l, p.t_h}
            assert members <= light or members <= heavy

    def test_budget_truncation(self):
        clusterer = CacheClusterer(n_clusters=4)
        rates = {t: float(t + 1) * 1e6 for t in range(8)}
        classes = {t: ("M" if t >= 4 else "C") for t in range(8)}
        report = make_report(rates, classes, high_cores={0, 1})
        config = DikeConfig(swap_size=2)  # n_pairs == 1
        pairs = clusterer.select(
            report, Placement.of({t: t for t in range(8)}), Selector(config), config
        )
        assert len(pairs) <= config.n_pairs

    def test_emits_cluster_events(self):
        clusterer = CacheClusterer(n_clusters=2)
        bus, sink = EventBus(), _Collector()
        bus.attach(sink)
        bus.at(3, 1.5)
        clusterer.bus = bus
        report = make_report(
            {0: 1e6, 1: 2e6, 2: 8e6, 3: 9e6},
            {0: "C", 1: "C", 2: "M", 3: "M"},
        )
        config = DikeConfig()
        placement = Placement.of({t: t for t in range(4)})
        clusterer.select(report, placement, Selector(config), config)
        formed = [e for e in sink.events if isinstance(e, CacheClusterFormed)]
        assert [e.cluster for e in formed] == [0, 1]
        assert formed[0].tids == (0, 1)
        assert formed[1].tids == (2, 3)

    def test_rejects_bad_cluster_count(self):
        with pytest.raises(ValueError):
            CacheClusterer(n_clusters=0)


class TestBlacklister:
    def test_heavy_interferer_banned(self):
        bl = Blacklister(interference_threshold=1.5, blacklist_quanta=2)
        report = make_report(
            {0: 1e6, 1: 1e6, 2: 1e7}, {0: "C", 1: "C", 2: "M"}
        )
        bl.select(report, Placement.of({0: 0, 1: 1, 2: 2}), Selector(DikeConfig()))
        assert bl.banned == frozenset({2})

    def test_ban_expires_after_quanta(self):
        bl = Blacklister(interference_threshold=1.5, blacklist_quanta=2)
        selector = Selector(DikeConfig())
        hot = make_report(
            {0: 1e6, 1: 1e6, 2: 1e7}, {0: "C", 1: "C", 2: "M"}
        )
        bl.select(hot, Placement.of({0: 0, 1: 1, 2: 2}), selector)
        assert 2 in bl.banned
        # Thread 2 calms down: the standing ban decays over 2 quanta.
        calm = make_report(
            {0: 1e6, 1: 1e6, 2: 1e6}, {0: "C", 1: "C", 2: "M"}
        )
        bl.select(calm, Placement.of({0: 0, 1: 1, 2: 2}), selector)
        assert 2 in bl.banned
        bl.select(calm, Placement.of({0: 0, 1: 1, 2: 2}), selector)
        assert 2 not in bl.banned

    def test_banned_thread_never_paired(self):
        bl = Blacklister(interference_threshold=1.5, blacklist_quanta=4)
        selector = Selector(DikeConfig())
        report = make_report(
            {0: 1e5, 1: 2e5, 2: 3e5, 3: 9e6},
            {0: "C", 1: "C", 2: "M", 3: "M"},
            high_cores={0, 1},
        )
        pairs = bl.select(report, Placement.of({0: 0, 1: 1, 2: 4, 3: 5}), selector)
        assert 3 in bl.banned
        for p in pairs:
            assert 3 not in (p.t_l, p.t_h)

    def test_emits_blacklist_event(self):
        bl = Blacklister(interference_threshold=1.5, blacklist_quanta=4)
        bus, sink = EventBus(), _Collector()
        bus.attach(sink)
        bus.at(5, 2.5)
        bl.bus = bus
        report = make_report(
            {0: 1e6, 1: 1e6, 2: 1e7}, {0: "C", 1: "C", 2: "M"}
        )
        bl.select(report, Placement.of({0: 0, 1: 1, 2: 2}), Selector(DikeConfig()))
        events = [e for e in sink.events if isinstance(e, CacheClusterFormed)]
        assert len(events) == 1
        assert events[0].label == "blacklisted"
        assert events[0].tids == (2,)

    def test_no_ban_when_rates_uniform(self):
        bl = Blacklister(interference_threshold=1.5, blacklist_quanta=4)
        report = make_report(
            {0: 1e6, 1: 1e6, 2: 1e6}, {0: "M", 1: "M", 2: "M"}
        )
        bl.select(report, Placement.of({0: 0, 1: 1, 2: 2}), Selector(DikeConfig()))
        assert bl.banned == frozenset()

    def test_validation(self):
        with pytest.raises(ValueError):
            Blacklister(interference_threshold=0.0, blacklist_quanta=4)
        with pytest.raises(ValueError):
            Blacklister(interference_threshold=1.5, blacklist_quanta=0)


class TestSchedulersEndToEnd:
    @pytest.mark.parametrize("policy", ["lfoc", "bliss"])
    def test_registry_run_completes(
        self, policy, tiny_workload, small_topology, run_quickly
    ):
        from repro.policies import REGISTRY

        result = run_quickly(
            tiny_workload, REGISTRY.build(policy), small_topology
        )
        assert result.makespan_s > 0.0
        assert result.policy_name == policy

    @pytest.mark.parametrize("policy", ["lfoc", "bliss"])
    def test_with_occupancy_llc(
        self, policy, tiny_workload, small_topology, run_quickly
    ):
        from repro.policies import REGISTRY

        result = run_quickly(
            tiny_workload,
            REGISTRY.build(policy),
            small_topology,
            llc="occupancy",
        )
        assert result.makespan_s > 0.0
        assert result.info["llc"]["model"] == "occupancy"

    def test_describe_carries_knobs(self):
        lfoc = LFOCScheduler(n_clusters=5)
        assert lfoc.describe()["n_clusters"] == 5
        bliss = BLISSScheduler(interference_threshold=2.0, blacklist_quanta=3)
        info = bliss.describe()
        assert info["interference_threshold"] == 2.0
        assert info["blacklist_quanta"] == 3

    def test_prepare_resets_blacklist_state(self, small_topology):
        """A reused scheduler object must not leak bans across runs."""
        from repro.schedulers.base import SchedulingContext
        from repro.sim.topology import Topology  # noqa: F401

        sched = BLISSScheduler()
        ctx = SchedulingContext(
            topology=small_topology, threads=[], seed=1
        )
        sched.prepare(ctx)
        sched.blacklister._banned[9] = 3
        sched.prepare(ctx)
        assert sched.blacklister.banned == frozenset()
