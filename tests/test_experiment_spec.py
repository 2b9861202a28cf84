"""Property suite for the unified spec layer (`repro.spec`).

Three contracts, each asserted over *every* registered policy and
topology rather than a hand-picked sample:

* **Round-trip** — a default- or fully-parameterised ref/spec survives
  ``to_dict`` → JSON → ``from_dict`` unchanged (the wire form is
  JSON-clean, schema-versioned, canonical).
* **Bounds** — the one validation path rejects out-of-schema values at
  construction: unknown parameter names always, out-of-range values for
  every `ParamSpec` that declares a bound.
* **Cache-key byte identity** — for any spec expressible as a legacy
  raw `TaskSpec`, the `ExperimentSpec` image hashes to the *same*
  content address, so historical object stores stay warm.  A golden
  hex digest pins the canonical form against silent drift.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.cachekey import cache_key
from repro.campaign.spec import SimParams, TaskSpec, WorkloadRef
from repro.policies import REGISTRY
from repro.spec import SPEC_SCHEMA_VERSION, ExperimentSpec, PolicyRef, TopologyRef
from repro.topologies import TOPOLOGY_REGISTRY
from repro.workloads.suite import workload

POLICIES = tuple(REGISTRY.names())
TOPOLOGIES = tuple(TOPOLOGY_REGISTRY.names())


def _default_params(spec) -> dict:
    """Every declared parameter pinned explicitly to its default."""
    return {p.name: p.default for p in spec.params if p.default is not None}


def _violation(p):
    """A value outside ``p``'s declared bounds, or None if unbounded."""
    if p.choices is not None:
        candidates = [c for c in (0, 1, -999, "no-such-choice") if c not in p.choices]
        return candidates[0] if candidates else None
    if p.minimum is not None:
        below = p.minimum - (1 if p.type is int else 1.0)
        return p.type(below)
    if p.maximum is not None:
        return p.type(p.maximum + (1 if p.type is int else 1.0))
    return None


def _bounded_params():
    """(kind, registry-name, ParamSpec) for every bounded parameter."""
    out = []
    for name in POLICIES:
        for p in REGISTRY.get(name).params:
            if _violation(p) is not None:
                out.append(("policy", name, p))
    for name in TOPOLOGIES:
        for p in TOPOLOGY_REGISTRY.get(name).params:
            if _violation(p) is not None:
                out.append(("topology", name, p))
    return out


BOUNDED = _bounded_params()


def _json_round_trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


class TestPolicyRefRoundTrip:
    @pytest.mark.parametrize("name", POLICIES)
    def test_defaults_round_trip(self, name):
        ref = PolicyRef.of(name)
        assert PolicyRef.from_dict(_json_round_trip(ref.to_dict())) == ref

    @pytest.mark.parametrize("name", POLICIES)
    def test_every_declared_param_round_trips(self, name):
        ref = PolicyRef.of(name, _default_params(REGISTRY.get(name)))
        assert PolicyRef.from_dict(_json_round_trip(ref.to_dict())) == ref

    @pytest.mark.parametrize("name", POLICIES)
    def test_params_are_canonically_sorted(self, name):
        params = _default_params(REGISTRY.get(name))
        if len(params) < 2:
            pytest.skip("needs >= 2 params to exercise ordering")
        forward = PolicyRef.of(name, sorted(params.items()))
        backward = PolicyRef.of(name, sorted(params.items(), reverse=True))
        assert forward == backward

    @pytest.mark.parametrize("name", POLICIES)
    def test_unknown_param_rejected(self, name):
        with pytest.raises(ValueError):
            PolicyRef.of(name, {"no_such_param": 1})


class TestTopologyRefRoundTrip:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_defaults_round_trip(self, name):
        ref = TopologyRef.of(name)
        assert TopologyRef.from_dict(_json_round_trip(ref.to_dict())) == ref

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_declared_param_round_trips(self, name):
        ref = TopologyRef.of(name, _default_params(TOPOLOGY_REGISTRY.get(name)))
        assert TopologyRef.from_dict(_json_round_trip(ref.to_dict())) == ref

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_unknown_param_rejected(self, name):
        with pytest.raises(ValueError):
            TopologyRef.of(name, {"no_such_param": 1})


class TestBoundsEnforced:
    @pytest.mark.parametrize(
        "kind,name,param",
        BOUNDED,
        ids=[f"{k}:{n}:{p.name}" for k, n, p in BOUNDED],
    )
    def test_out_of_bounds_value_rejected(self, kind, name, param):
        bad = {param.name: _violation(param)}
        ref_cls = PolicyRef if kind == "policy" else TopologyRef
        with pytest.raises(ValueError):
            ref_cls.of(name, bad)

    def test_registries_declare_bounded_params(self):
        """The suite above is not vacuous: both registries contribute."""
        kinds = {k for k, _, _ in BOUNDED}
        assert kinds == {"policy", "topology"}


class TestExperimentSpecRoundTrip:
    @pytest.mark.parametrize("name", POLICIES)
    def test_policy_spec_round_trips_through_json(self, name):
        exp = ExperimentSpec.for_workload(
            workload("wl1"), name,
            policy_params=_default_params(REGISTRY.get(name)),
            sim=SimParams(work_scale=0.05),
        )
        assert ExperimentSpec.from_dict(_json_round_trip(exp.to_dict())) == exp

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_topology_spec_round_trips_through_json(self, name):
        exp = ExperimentSpec.for_workload(
            workload("wl1"), "dike",
            sim=SimParams(
                work_scale=0.05, topology=name,
                topology_params=tuple(
                    sorted(_default_params(TOPOLOGY_REGISTRY.get(name)).items())
                ),
            ),
        )
        assert ExperimentSpec.from_dict(_json_round_trip(exp.to_dict())) == exp

    @pytest.mark.parametrize("name", POLICIES)
    def test_task_image_round_trips(self, name):
        exp = ExperimentSpec.for_workload(workload("wl2"), name, seed=9)
        assert ExperimentSpec.from_task(exp.to_task()) == exp

    def test_unknown_schema_version_rejected(self):
        doc = ExperimentSpec.for_workload(workload("wl1"), "dike").to_dict()
        doc["spec_version"] = SPEC_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(doc)

    def test_non_triple_migration_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.for_workload(
                workload("wl1"), "dike", sim=SimParams(migration=(0.01, 2.0))
            )


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc

    return edit


def _drop(key):
    def edit(doc):
        del doc[key]
        return doc

    return edit


#: (edit of a valid wire document, key the ValueError must name)
BAD_DOCUMENTS = [
    (_set("seed", "x"), "seed"),
    (_set("seed", 1.5), "seed"),
    (_set("seed", True), "seed"),
    (_set("seed", -1), "seed"),
    (_drop("seed"), "seed"),
    (_set("work_scale", -1.0), "work_scale"),
    (_set("work_scale", float("nan")), "work_scale"),
    (_set("counter_noise", "z"), "counter_noise"),
    (_set("counter_noise", -0.1), "counter_noise"),
    (_set("max_time_s", None), "max_time_s"),
    (_set("max_time_s", float("inf")), "max_time_s"),
    (_set("invariants", "yes"), "invariants"),
    (_set("record_timeseries", 1), "record_timeseries"),
    (_set("traffic", None), "traffic"),
    (_drop("workload"), "workload"),
    (_set("workload", "wl1"), "workload"),
    (lambda doc: {**doc, "workload": {"name": "wl1"}}, "workload"),
    (_set("policy", None), "policy"),
    (_set("policy", {"params": []}), "policy"),
    (_drop("topology"), "topology"),
    (_set("topology", [["name", "heterogeneous"]]), "topology"),
    (lambda doc: [doc], "mapping"),
    (lambda doc: "spec", "mapping"),
]


class TestWireBoundary:
    @pytest.mark.parametrize(
        "edit, key", BAD_DOCUMENTS,
        ids=[f"{key}-{i}" for i, (_, key) in enumerate(BAD_DOCUMENTS)],
    )
    def test_bad_document_raises_value_error_naming_the_key(self, edit, key):
        doc = ExperimentSpec.for_workload(workload("wl1"), "dike").to_dict()
        with pytest.raises(ValueError, match=key):
            ExperimentSpec.from_dict(edit(doc))


class TestCacheKeyByteIdentity:
    """`ExperimentSpec` must address the same cache objects as the raw
    `TaskSpec` constructor did before this layer existed."""

    @pytest.mark.parametrize("name", POLICIES)
    def test_every_policy_keeps_its_legacy_key(self, name):
        params = tuple(sorted(_default_params(REGISTRY.get(name)).items()))
        legacy = TaskSpec(
            workload=WorkloadRef.from_spec(workload("wl3")),
            policy=name,
            seed=11,
            policy_params=params,
            sim=SimParams(work_scale=0.1),
        )
        assert ExperimentSpec.from_task(legacy).cache_key() == cache_key(legacy)

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_topology_keeps_its_legacy_key(self, name):
        legacy = TaskSpec(
            workload=WorkloadRef.from_spec(workload("wl3")),
            policy="dike",
            seed=11,
            sim=SimParams(work_scale=0.1, topology=name),
        )
        assert ExperimentSpec.from_task(legacy).cache_key() == cache_key(legacy)

    def test_golden_key_pins_the_canonical_form(self):
        """Byte-for-byte pin of one known address.  Fails iff the hashed
        canonical form changes — exactly when cache SCHEMA_VERSION must
        be bumped, because old object stores would silently go cold."""
        exp = ExperimentSpec.for_workload(
            workload("wl2"), "dike", seed=42,
            policy_params={"swap_size": 4, "quanta_length_s": 0.2},
            sim=SimParams(work_scale=0.1),
        )
        legacy = TaskSpec(
            workload=WorkloadRef.from_spec(workload("wl2")),
            policy="dike",
            seed=42,
            policy_params=(("quanta_length_s", 0.2), ("swap_size", 4)),
            sim=SimParams(work_scale=0.1),
        )
        golden = "00dd68e8c944462dc35b17db6368b99e0c5790f15336890695bb1a1a16f61a32"
        assert exp.cache_key() == cache_key(legacy) == golden

    def test_record_timeseries_still_excluded(self):
        with_trace = ExperimentSpec.for_workload(
            workload("wl1"), "dike",
            sim=SimParams(work_scale=0.1, record_timeseries=True),
        )
        without = ExperimentSpec.for_workload(
            workload("wl1"), "dike", sim=SimParams(work_scale=0.1)
        )
        assert with_trace.cache_key() == without.cache_key()


class TestDeprecatedShims:
    def test_for_workload_warns_and_matches(self):
        exp = ExperimentSpec.for_workload(workload("wl1"), "dike", seed=3)
        with pytest.warns(DeprecationWarning):
            legacy = TaskSpec.for_workload(workload("wl1"), "dike", seed=3)
        assert cache_key(legacy) == exp.cache_key()

    def test_build_scheduler_warns_and_delegates(self):
        from repro.campaign.spec import build_scheduler

        with pytest.warns(DeprecationWarning):
            sched = build_scheduler("dike", {"swap_size": 4})
        assert sched is not None
