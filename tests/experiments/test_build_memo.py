"""The per-process build memo behind `build_engine` and `task_engine`.

A run's threads are a pure function of ``(workload, seed, work_scale)``
and its machine of its topology ref, so each is built once per process
and shared.  These tests pin the contract: an equal key returns the very
objects the first build made, every field of the key tells builds apart,
a run from a hit serialises to the bytes of a run from a fresh build
(scalar and batched), the memo keeps to its thread bound in LRU order and
never keeps a failed build, and direct builders still build afresh.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign.spec import SimParams, task_engine
from repro.experiments import runner
from repro.experiments.runner import build_engine, clear_build_memo, machine
from repro.experiments.serialization import run_result_to_full_json
from repro.policies import REGISTRY
from repro.sim.batch import BatchEngine
from repro.spec import ExperimentSpec, TopologyRef
from repro.topologies import TOPOLOGY_REGISTRY
from repro.traffic import Job, TrafficWorkload
from repro.workloads.suite import WorkloadSpec, workload

SCALE = 0.02
TWO_JOBS = TrafficWorkload("two-jobs", (Job(0, "jacobi", 0.0), Job(1, "srad", 2.0)))


@pytest.fixture(autouse=True)
def empty_memo():
    clear_build_memo()
    yield
    clear_build_memo()


def tiny(apps=("jacobi",)) -> WorkloadSpec:
    """Two threads per app, no kmeans."""
    return WorkloadSpec("tiny", apps, include_kmeans=False, threads_per_app=2)


def groups_of(spec, seed: int = 1, work_scale: float = SCALE):
    return build_engine(
        spec, REGISTRY.build("cfs"), seed=seed, work_scale=work_scale
    ).groups


def same_objects(a, b) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def shares_nothing(a, b) -> bool:
    return not {id(g) for g in a} & {id(g) for g in b}


class TestKey:
    def test_equal_key_returns_the_same_groups(self):
        first = groups_of(workload("wl1"), seed=3)
        again = groups_of(workload("wl1"), seed=3)  # a new, equal spec
        assert same_objects(first, again)

    def test_equal_task_specs_share_groups_and_machine(self):
        def spec(policy):
            return ExperimentSpec.for_workload(
                workload("wl1"), policy, seed=3,
                sim=SimParams(work_scale=SCALE, topology="homogeneous"),
            )

        a, b = task_engine(spec("cfs")), task_engine(spec("dike"))
        assert same_objects(a.groups, b.groups)
        assert a.topology is b.topology

    @pytest.mark.parametrize(
        "base, variant, seeds, scales",
        [
            (tiny(), tiny(), (1, 2), (SCALE, SCALE)),
            (tiny(), tiny(), (1, 1), (SCALE, 2 * SCALE)),
            (tiny(apps=("jacobi", "srad")), tiny(apps=("srad", "jacobi")),
             (1, 1), (SCALE, SCALE)),
            (workload("wl1"), workload("wl1", include_kmeans=False),
             (1, 1), (SCALE, SCALE)),
            (tiny(), replace(tiny(), threads_per_app=3), (1, 1), (SCALE, SCALE)),
            (TWO_JOBS,
             TrafficWorkload("two-jobs", (Job(0, "jacobi", 0.0),
                                          Job(1, "srad", 3.0))),
             (1, 1), (SCALE, SCALE)),
            (TWO_JOBS,
             TrafficWorkload("two-jobs", (Job(0, "jacobi", 0.0),
                                          Job(1, "srad", 2.0, size=0.5))),
             (1, 1), (SCALE, SCALE)),
        ],
        ids=["seed", "work_scale", "app_order", "include_kmeans",
             "threads_per_app", "job_arrival", "job_size"],
    )
    def test_each_field_gives_a_distinct_build(self, base, variant, seeds, scales):
        a = groups_of(base, seed=seeds[0], work_scale=scales[0])
        b = groups_of(variant, seed=seeds[1], work_scale=scales[1])
        assert shares_nothing(a, b)
        assert same_objects(a, groups_of(base, seed=seeds[0], work_scale=scales[0]))

    def test_equal_values_of_another_type_do_not_share(self):
        # 5 == 5.0, but an int arrival reaches events and results as "5".
        as_int = TrafficWorkload("t", (Job(0, "jacobi", 5),))
        as_float = TrafficWorkload("t", (Job(0, "jacobi", 5.0),))
        assert as_int == as_float
        a = groups_of(as_int, work_scale=1)
        b = groups_of(as_float, work_scale=1)
        assert shares_nothing(a, b)
        assert type(a[0].arrival_s) is int and type(b[0].arrival_s) is float

    def test_list_built_specs_equal_and_hash_like_their_tuple_twins(self):
        closed = WorkloadSpec("x", ["jacobi"], include_kmeans=False)
        traffic = TrafficWorkload("t", [Job(0, "jacobi", 0.0)])
        for listed, twin in (
            (closed, WorkloadSpec("x", ("jacobi",), include_kmeans=False)),
            (traffic, TrafficWorkload("t", (Job(0, "jacobi", 0.0),))),
        ):
            assert listed == twin and hash(listed) == hash(twin)
            assert same_objects(groups_of(listed), groups_of(twin))


class TestMachine:
    def test_equal_refs_share_one_machine(self):
        ref = TopologyRef.of("multi-socket", {"n_sockets": 2})
        assert machine(ref) is machine(TopologyRef.of("multi-socket", {"n_sockets": 2}))
        assert machine(ref) is not machine(TopologyRef.of("multi-socket", {"n_sockets": 3}))

    def test_default_engine_runs_on_the_memoised_paper_machine(self):
        engine = build_engine(tiny(), REGISTRY.build("cfs"), work_scale=SCALE)
        assert engine.topology is machine(TopologyRef())

    def test_direct_builders_build_afresh(self):
        spec = workload("wl1")
        memoised = groups_of(spec)
        assert shares_nothing(memoised, spec.build(seed=1, work_scale=SCALE))
        assert shares_nothing(groups_of(TWO_JOBS), TWO_JOBS.build(seed=1, work_scale=SCALE))
        built = TOPOLOGY_REGISTRY.build("heterogeneous")
        assert built is not machine(TopologyRef())
        assert built is not TOPOLOGY_REGISTRY.build("heterogeneous")


def _engines(configs):
    return [
        build_engine(spec, REGISTRY.build(policy), seed=seed, work_scale=SCALE)
        for spec, policy, seed in configs
    ]


class TestHitEqualsFreshBuild:
    CONFIGS = [(workload("wl1"), "dike", 5), (TWO_JOBS, "dike", 5)]

    @pytest.mark.parametrize("config", CONFIGS, ids=["wl1-dike", "two-jobs-dike"])
    def test_scalar(self, config):
        fresh_engine, = _engines([config])
        fresh = run_result_to_full_json(fresh_engine.run())
        hit_engine, = _engines([config])
        assert same_objects(hit_engine.groups, fresh_engine.groups)
        assert run_result_to_full_json(hit_engine.run()) == fresh

    def test_batch_lanes(self):
        # The wl1 lanes share one build within the batch.
        configs = [*self.CONFIGS, (workload("wl1"), "cfs", 5)]
        fresh = []
        for config in configs:  # every run from an empty memo
            clear_build_memo()
            fresh.append(run_result_to_full_json(_engines([config])[0].run()))
        clear_build_memo()
        warm = _engines(configs)
        lanes = _engines(configs)
        for hit, first in zip(lanes, warm):
            assert same_objects(hit.groups, first.groups)
        assert same_objects(lanes[0].groups, lanes[2].groups)
        hits = BatchEngine(lanes).run()
        assert [run_result_to_full_json(r) for r in hits] == fresh


class TestBound:
    def test_bound_holds_and_eviction_is_lru(self, monkeypatch):
        monkeypatch.setattr(runner._GROUPS, "bound", 6)  # three 2-thread builds
        a, b, c = (groups_of(tiny(), seed=s) for s in (1, 2, 3))
        assert runner._GROUPS.held == 6
        assert same_objects(a, groups_of(tiny(), seed=1))  # a is now the newest
        d = groups_of(tiny(), seed=4)  # evicts b, the least recently used
        assert runner._GROUPS.held == 6
        assert same_objects(a, groups_of(tiny(), seed=1))
        assert same_objects(c, groups_of(tiny(), seed=3))
        assert same_objects(d, groups_of(tiny(), seed=4))
        assert shares_nothing(b, groups_of(tiny(), seed=2))
        assert runner._GROUPS.held <= 6

    def test_build_heavier_than_the_bound_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(runner._GROUPS, "bound", 3)
        kept = groups_of(tiny())
        heavy = groups_of(tiny(apps=("jacobi", "srad")))  # 4 threads
        assert shares_nothing(heavy, groups_of(tiny(apps=("jacobi", "srad"))))
        assert same_objects(kept, groups_of(tiny()))
        assert runner._GROUPS.held == 2

    def test_failed_build_is_not_kept(self, monkeypatch):
        build, calls = WorkloadSpec.build, []

        def fails_once(spec, seed, work_scale=1.0):
            calls.append(seed)
            if len(calls) == 1:
                raise RuntimeError("injected build failure")
            return build(spec, seed, work_scale)

        monkeypatch.setattr(WorkloadSpec, "build", fails_once)
        with pytest.raises(RuntimeError):
            groups_of(tiny())
        assert runner._GROUPS.held == 0
        groups = groups_of(tiny())
        assert same_objects(groups, groups_of(tiny()))
        assert len(calls) == 2 and runner._GROUPS.held == 2

    def test_bound_is_the_module_constant(self):
        assert runner._GROUPS.bound == runner.BUILD_MEMO_THREADS
