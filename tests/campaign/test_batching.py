"""Campaign batching: grouping rules, result unpacking, cache identity.

The guarantee under test: ``Campaign(batch=True)`` is an execution
strategy, not a semantic change — a mixed campaign (batched LLC and
non-LLC lanes plus scalar tasks) produces byte-identical cached artifacts
either way, failures surface per member, a batch that falls back to
scalar runs says so in telemetry, and ineligible tasks never enter a
batch.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.batching import (
    DEFAULT_BATCH_SIZE,
    BatchResult,
    BatchTask,
    batchable,
    batch_signature,
    execute_batch,
    plan_batches,
)
from repro.campaign.cachekey import cache_key
from repro.campaign.core import Campaign, CampaignError
from repro.campaign.spec import SimParams, TaskSpec
from repro.workloads.suite import workload

SIM = SimParams(work_scale=0.05)


def _task(policy: str = "cfs", seed: int = 0, wl: str = "wl1", **sim) -> TaskSpec:
    return TaskSpec.for_workload(
        workload(wl), policy, seed=seed, sim=SimParams(work_scale=0.05, **sim)
    )


def _keyed(tasks):
    return [(cache_key(t), t) for t in tasks]


class TestEligibility:
    def test_plain_task_is_batchable(self):
        assert batchable(_task())

    def test_llc_task_is_batchable(self):
        assert batchable(_task(llc="occupancy"))

    def test_invariant_task_is_not(self):
        from dataclasses import replace

        assert not batchable(replace(_task(), invariants=True))

    def test_timeseries_task_is_not(self):
        assert not batchable(_task(record_timeseries=True))

    def test_signature_ignores_seed_but_not_policy(self):
        assert batch_signature(_task(seed=0)) == batch_signature(_task(seed=9))
        assert batch_signature(_task("cfs")) != batch_signature(_task("dike"))


class TestPlanning:
    def test_homogeneous_grid_becomes_one_batch(self):
        units = plan_batches(_keyed([_task(seed=s) for s in range(6)]))
        assert len(units) == 1
        (key, unit), = units
        assert isinstance(unit, BatchTask) and len(unit.items) == 6
        assert unit.label().startswith("batch[6]:wl1/cfs")

    def test_chunking_respects_max_batch(self):
        units = plan_batches(
            _keyed([_task(seed=s) for s in range(DEFAULT_BATCH_SIZE + 3)])
        )
        sizes = sorted(
            len(u.items) for _, u in units if isinstance(u, BatchTask)
        )
        assert sizes == [3, DEFAULT_BATCH_SIZE]

    def test_singletons_and_ineligible_stay_scalar(self):
        from dataclasses import replace

        tasks = [
            _task("cfs", 0), _task("dike", 0), replace(_task("cfs", 1), invariants=True),
        ]
        units = plan_batches(_keyed(tasks))
        assert all(isinstance(u, TaskSpec) for _, u in units)
        assert len(units) == 3

    def test_unit_keys_are_unique(self):
        tasks = [_task(seed=s) for s in range(4)] + [_task("dike", s) for s in range(4)]
        units = plan_batches(_keyed(tasks))
        keys = [k for k, _ in units]
        assert len(keys) == len(set(keys))


class TestExecution:
    def test_execute_batch_unstacks_per_member_results(self):
        batch = BatchTask(items=tuple(_keyed([_task(seed=s) for s in range(3)])))
        out = execute_batch(batch)
        assert isinstance(out, BatchResult) and not out.fallback
        assert set(out.results) == set(batch.keys)
        assert out.n_quanta == sum(r.n_quanta for r in out.results.values())

    def test_engine_failure_falls_back_to_scalar(self, monkeypatch):
        import repro.sim.batch as batch_mod

        def boom(self):
            raise RuntimeError("synthetic batch-engine failure")

        monkeypatch.setattr(batch_mod.BatchEngine, "run", boom)
        batch = BatchTask(items=tuple(_keyed([_task(seed=s) for s in range(2)])))
        out = execute_batch(batch)
        assert out.fallback == "RuntimeError: synthetic batch-engine failure"
        assert set(out.results) == set(batch.keys)

    def test_llc_lanes_keep_their_cache_model(self):
        tasks = [_task("cfs", s, llc="occupancy") for s in range(2)]
        out = execute_batch(BatchTask(items=tuple(_keyed(tasks))))
        assert not out.fallback
        for result in out.results.values():
            assert result.info["llc"]["model"] == "occupancy"

    def test_fallback_is_reported_in_telemetry(self, tmp_path, monkeypatch):
        import repro.sim.batch as batch_mod

        def boom(self):
            raise RuntimeError("synthetic batch-engine failure")

        monkeypatch.setattr(batch_mod.BatchEngine, "run", boom)
        from repro.campaign.telemetry import Telemetry

        log = tmp_path / "events.jsonl"
        telemetry = Telemetry(events_path=log, stream=None)
        c = Campaign(telemetry=telemetry, batch=True)
        assert len(c.gather([_task(seed=s) for s in range(3)])) == 3
        telemetry.close()
        events = [json.loads(line) for line in log.read_text().splitlines()]
        (fallback,) = [e for e in events if e["event"] == "batch_fallback"]
        assert fallback["task"].startswith("batch[3]:wl1/cfs")
        assert "synthetic batch-engine failure" in fallback["error"]
        assert events[-1]["event"] == "summary"
        assert events[-1]["batch_fallbacks"] == 1
        assert "fell back" in telemetry.render_summary()

class TestCacheIdentity:
    def _mixed_tasks(self):
        tasks = [_task("cfs", s) for s in range(4)]
        tasks += [_task("dike", s) for s in range(2)]
        tasks += [_task("cfs", 0, wl="wl7")]          # same shape, batches in
        tasks += [_task("cfs", 1, llc="occupancy")]   # LLC lane, batches in
        tasks += [_task("dike", s, llc="occupancy") for s in range(2)]
        return tasks

    def _store_bytes(self, root) -> dict[str, bytes]:
        return {
            p.name: p.read_bytes()
            for p in sorted(Path(root, "objects").rglob("*.json"))
        }

    def test_mixed_campaign_identical_cache_contents(self, tmp_path):
        tasks = self._mixed_tasks()
        Campaign.at(tmp_path / "scalar", max_workers=1).gather(tasks)
        Campaign.at(tmp_path / "batched", max_workers=1, batch=True).gather(tasks)
        a = self._store_bytes(tmp_path / "scalar")
        b = self._store_bytes(tmp_path / "batched")
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] for k in a)

    def test_batched_results_come_back_in_input_order(self):
        tasks = [_task("cfs", s) for s in (3, 1, 2)]
        c = Campaign(batch=True)
        results = c.gather(tasks)
        assert [r.seed for r in results] == [3, 1, 2]

    def test_resume_after_batched_run_is_all_cache_hits(self, tmp_path):
        tasks = [_task("cfs", s) for s in range(3)]
        Campaign.at(tmp_path, max_workers=1, batch=True).gather(tasks)
        c2 = Campaign.at(tmp_path, max_workers=1)
        c2.gather(tasks)
        assert c2.telemetry.summary()["cache_hits"] == 3


class TestFailureExpansion:
    def test_unit_failure_expands_to_per_member_failures(self, monkeypatch):
        import repro.campaign.core as core_mod
        from repro.campaign.executor import TaskFailure

        tasks = [_task("cfs", s) for s in range(3)]
        keyed = _keyed(tasks)
        units = plan_batches(keyed)
        (unit_key, unit), = units

        failure = TaskFailure(
            key=unit_key, label=unit.label(), kind="error",
            error="boom", attempts=1,
        )
        monkeypatch.setattr(
            core_mod, "run_tasks", lambda *a, **k: {unit_key: failure}
        )
        c = Campaign(batch=True)
        with pytest.raises(CampaignError) as err:
            c.gather(tasks)
        assert len(err.value.failures) == 3
        assert {f.key for f in err.value.failures} == {k for k, _ in keyed}


class TestBaselineCacheStamp:
    def test_open_loop_batch_stamps_baseline_cache_but_store_strips_it(
        self, tmp_path
    ):
        from repro.traffic import TrafficSpec

        wl = TrafficSpec.at_rate(0.3, n_jobs=4, trace_seed=1).workload()
        tasks = [
            TaskSpec.for_traffic(wl, "cfs", seed=s, sim=SIM) for s in range(2)
        ]
        c = Campaign.at(tmp_path, max_workers=1, batch=True)
        results = c.gather(tasks)
        for r in results:
            stats = r.info["traffic"]["baseline_cache"]
            assert set(stats) == {"hits", "misses"}
        for p in Path(tmp_path, "objects").rglob("*.json"):
            doc = json.loads(p.read_text())
            assert "baseline_cache" not in doc["info"]["traffic"]
