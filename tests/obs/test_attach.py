"""Tests for the unified ``repro.obs.attach`` API and its legacy shims."""

from __future__ import annotations

import pytest

import repro
from repro.core.dike import DikeScheduler
from repro.obs import (
    EventBus,
    InvariantSink,
    KindTallySink,
    MetricsRegistry,
    NULL_BUS,
    RingBufferSink,
    attach,
)
from repro.sim.engine import SimulationEngine


def _engine(tiny_workload, small_topology, bus=None) -> SimulationEngine:
    groups = tiny_workload.build(seed=7, work_scale=0.01)
    return SimulationEngine(
        topology=small_topology, groups=groups, scheduler=DikeScheduler(),
        seed=7, workload_name=tiny_workload.name, bus=bus,
    )


class TestAttachTargets:
    def test_none_target_creates_a_fresh_bus(self):
        att = attach(ring=True)
        assert isinstance(att.bus, EventBus)
        assert att.bus is not NULL_BUS
        assert isinstance(att.ring, RingBufferSink)

    def test_existing_bus_is_used_directly(self):
        bus = EventBus()
        att = attach(bus, tally=True)
        assert att.bus is bus
        assert isinstance(att.tally, KindTallySink)

    def test_null_bus_is_rejected(self):
        with pytest.raises(ValueError, match="NULL_BUS"):
            attach(NULL_BUS, ring=True)

    def test_unknown_target_is_rejected(self):
        with pytest.raises(TypeError, match="cannot attach"):
            attach(object(), ring=True)

    def test_engine_without_bus_gets_one_installed(
        self, tiny_workload, small_topology
    ):
        engine = _engine(tiny_workload, small_topology)
        assert engine.bus is NULL_BUS
        att = attach(engine, ring=True, metrics=True)
        assert engine.bus is att.bus is not NULL_BUS
        assert engine.metrics is att.metrics is att.bus.metrics
        result = engine.run()
        assert len(att.ring) > 0
        assert "metrics" in result.info

    def test_engine_with_bus_keeps_it(self, tiny_workload, small_topology):
        bus = EventBus()
        engine = _engine(tiny_workload, small_topology, bus=bus)
        att = attach(engine, tally=True)
        assert att.bus is bus


class TestAttachOptions:
    def test_trace_and_chrome_sinks(self, tmp_path):
        att = attach(trace=tmp_path / "t.jsonl", chrome=tmp_path / "c.json")
        att.close()
        assert (tmp_path / "t.jsonl").exists()
        assert (tmp_path / "c.json").exists()

    def test_invariants_accepts_policy_name(self):
        att = attach(invariants="dio")
        assert isinstance(att.invariants, InvariantSink)
        assert "cooldown" not in att.invariants.rules

    def test_invariants_true_checks_everything(self):
        att = attach(invariants=True, swap_size=4)
        assert att.invariants.swap_size == 4
        assert set(att.invariants.rules) == {
            "no-third-core", "cooldown", "swap-budget",
            "profit-arithmetic", "permutation",
        }

    def test_invariants_accepts_ready_sink(self):
        sink = InvariantSink(rules=("no-third-core",))
        att = attach(invariants=sink)
        assert att.invariants is sink

    def test_metrics_accepts_shared_registry(self):
        registry = MetricsRegistry()
        att = attach(metrics=registry)
        assert att.bus.metrics is registry

    def test_context_manager_closes(self, tmp_path):
        with attach(trace=tmp_path / "t.jsonl") as att:
            pass
        with pytest.raises(ValueError, match="closed"):
            att.jsonl.accept(None)

    def test_finalize_stamps_invariants_into_info(
        self, run_quickly, tiny_workload, small_topology
    ):
        att = attach(invariants="dike")
        result = run_quickly(
            tiny_workload, DikeScheduler(), small_topology, work_scale=0.02, bus=att.bus
        )
        att.finalize(result)
        digest = result.info["invariants"]
        assert digest["total"] == 0
        assert digest["checked"] > 0
        assert set(digest["by_rule"]) == set(digest["rules"])

    def test_finalize_without_invariants_is_a_noop(
        self, run_quickly, tiny_workload, small_topology
    ):
        att = attach(ring=True)
        result = run_quickly(
            tiny_workload, DikeScheduler(), small_topology, work_scale=0.01, bus=att.bus
        )
        att.finalize(result)
        assert "invariants" not in result.info


class TestCampaignTarget:
    def test_declarative_options_configure_the_campaign(self, tmp_path):
        from repro.campaign import Campaign

        campaign = Campaign.inline()
        att = attach(campaign, invariants=True, trace=tmp_path / "traces")
        assert att.campaign is campaign
        assert campaign.invariants is True
        assert campaign.trace_dir == str(tmp_path / "traces")
        att.close()  # no bus — must not raise

    def test_live_sinks_are_rejected_for_campaigns(self):
        from repro.campaign import Campaign

        with pytest.raises(ValueError, match="separate processes"):
            attach(Campaign.inline(), ring=True)

    def test_policy_string_invariants_rejected_for_campaigns(self):
        from repro.campaign import Campaign

        with pytest.raises(ValueError, match="per task policy"):
            attach(Campaign.inline(), invariants="dike")


class TestRunWorkloadAcceptsAttachment:
    def test_attachment_handle_unwraps_to_its_bus(
        self, tiny_workload, small_topology
    ):
        from repro.experiments.runner import run_workload

        att = attach(tally=True)
        run_workload(
            tiny_workload, DikeScheduler(), seed=7, work_scale=0.01,
            topology=small_topology, bus=att,
        )
        assert att.tally.total() > 0


class TestPublicSurface:
    def test_top_level_reexports(self):
        for name in (
            "attach", "DivergenceReport", "InvariantSink",
            "MetricsRegistry", "Campaign", "run_scenario",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_run_scenario_is_run_workload(self):
        assert repro.run_scenario is repro.run_workload
