"""Property suite for the unified spec layer (`repro.spec`).

Three contracts, each asserted over *every* registered policy and
topology rather than a hand-picked sample:

* **Round-trip** — a default- or fully-parameterised ref/spec survives
  ``to_dict`` → JSON → ``from_dict`` unchanged (the wire form is
  JSON-clean, schema-versioned, canonical).
* **Bounds** — the one validation path rejects out-of-schema values at
  construction: unknown parameter names always, out-of-range values for
  every `ParamSpec` that declares a bound.
* **Cache-key byte identity** — every registered policy and topology,
  and one spec per optional field of the hashed dict, hashes to the
  content address recorded in ``tests/golden/cache_keys.json`` (keys
  computed when specs were still lowered to the older task type), so
  historical object stores stay warm.

The wire boundary is also fuzzed: any drop or retype of a field of a
valid document either raises ``ValueError`` or yields a spec that
round-trips and hashes.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cachekey import task_fingerprint
from repro.campaign.spec import SimParams, WorkloadRef
from repro.policies import REGISTRY
from repro.spec import SPEC_SCHEMA_VERSION, ExperimentSpec, PolicyRef, TopologyRef
from repro.topologies import TOPOLOGY_REGISTRY
from repro.traffic import phased_workload
from repro.workloads.suite import workload

POLICIES = tuple(REGISTRY.names())
TOPOLOGIES = tuple(TOPOLOGY_REGISTRY.names())

#: The recorded content address of every spec `_recorded_specs` builds.
CACHE_KEYS = Path(__file__).parent / "golden" / "cache_keys.json"

#: The CI spec-identity job's tiny grid: (workload, policy, params).
TINY_GRID = (
    ("wl1", "cfs", ()),
    ("wl1", "dike", (("swap_size", 4),)),
    ("wl3", "dike-af", ()),
)


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
        """The hashed image carries every field but ``record_timeseries``,
        so distinct specs never share a cache key."""
        exp = ExperimentSpec.for_workload(workload("wl2"), name, seed=9)
        assert _spec_of_image(_json_round_trip(task_fingerprint(exp))) == exp

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


def _spec_of_image(image: dict) -> ExperimentSpec:
    """The spec a cache-key image describes (``record_timeseries`` off)."""
    sim = image["sim"]
    return ExperimentSpec(
        workload=WorkloadRef(**{
            k: tuple(v) if isinstance(v, list) else v
            for k, v in image["workload"].items()
        }),
        policy=PolicyRef.of(image["policy"], dict(image["policy_params"])),
        topology=TopologyRef.of(
            sim["topology"], dict(sim.get("topology_params", ()))
        ),
        seed=image["seed"],
        work_scale=sim["work_scale"],
        counter_noise=sim["counter_noise"],
        max_time_s=sim["max_time_s"],
        migration=tuple(sim["migration"]) if sim["migration"] else None,
        llc=sim.get("llc"),
        invariants=image.get("invariants", False),
        traffic=image.get("traffic", False),
    )


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc

    return edit


def _set_workload(key, value):
    def edit(doc):
        doc["workload"][key] = value
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
    # Fields that would otherwise escape as a raw TypeError, or get a
    # cache key and fail only inside a worker.
    (_set("migration", 5), "migration"),
    (_set("migration", "abc"), "migration"),
    (_set("migration", [1, 2, "x"]), "migration"),
    (_set("migration", [-1.0, 2.0, 1.5]), "migration"),
    (_set("llc", []), "llc"),
    (_set_workload("apps", "jacobi"), "apps"),
    (_set_workload("apps", ["jacobi", "no-such-app"]), "apps"),
    (_set_workload("apps", []), "apps"),
    (_set_workload("threads_per_app", 0), "threads_per_app"),
    (_set_workload("threads_per_app", "8"), "threads_per_app"),
    (_set_workload("name", 5), "'name'"),
    (_set_workload("include_kmeans", "no"), "include_kmeans"),
    (_set_workload("arrivals", ["0", "1", "2", "3"]), "arrivals"),
    (_set("work_scale", 10**400), "work_scale"),
    (
        _set("policy", {"name": "dike", "params": [["fairness_threshold", float("nan")]]}),
        "fairness_threshold",
    ),
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


#: Valid documents the fuzzer mutates: every optional field set once.
FUZZ_SEEDS = (
    ExperimentSpec.for_workload(
        workload("wl1"), "dike", seed=3,
        policy_params={"swap_size": 4},
        sim=SimParams(
            work_scale=0.1, topology="scale128",
            topology_params=(("smt", 1),), migration=(0.02, 5e8, 2.0),
            llc="occupancy",
        ),
        invariants=True,
    ).to_dict(),
    ExperimentSpec(
        workload=WorkloadRef(
            name="open", apps=("jacobi", "srad"), include_kmeans=False,
            threads_per_app=2, arrivals=(0.0, 1.5), sizes=(1.0, 0.5),
        ),
        policy=PolicyRef.of("cfs"),
        traffic=True,
    ).to_dict(),
)

#: Everything `json.loads` can return, including NaN, infinities and
#: integers beyond the float range.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["jacobi", "dike", "occupancy", "scale128", "smt"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every (container path, key) addressing a value in ``node``."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_SEEDS))))
    prefix, key = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for step in prefix:
        parent = parent[step]
    old = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(
            JSON_VALUES.filter(lambda v: type(v) is not type(old))
        )
    return doc


class TestWireFuzz:
    @settings(max_examples=300, deadline=None)
    @given(doc=_mutated_documents())
    def test_from_dict_raises_value_error_or_round_trips(self, doc):
        try:
            spec = ExperimentSpec.from_dict(doc)
        except ValueError:
            return
        assert ExperimentSpec.from_dict(_json_round_trip(spec.to_dict())) == spec
        assert len(spec.cache_key()) == 64


def _recorded_specs() -> dict[str, ExperimentSpec]:
    """Every spec whose key `tests/golden/cache_keys.json` records.

    Each registered policy at its default parameters and each topology
    preset; one spec per optional field of the hashed dict; and the CI
    spec-identity job's tiny grid.
    """
    specs = {}
    for name in POLICIES:
        specs[f"policy/{name}"] = ExperimentSpec.for_workload(
            workload("wl3"), name, seed=11,
            policy_params=_default_params(REGISTRY.get(name)),
            sim=SimParams(work_scale=0.1),
        )
    for name in TOPOLOGIES:
        specs[f"topology/{name}"] = ExperimentSpec.for_workload(
            workload("wl3"), "dike", seed=11,
            sim=SimParams(work_scale=0.1, topology=name),
        )
    base = ExperimentSpec.for_workload(
        workload("wl2"), "dike", seed=42, sim=SimParams(work_scale=0.1)
    )
    open_loop = WorkloadRef(
        name="open", apps=("jacobi", "srad", "needle"), include_kmeans=False,
        threads_per_app=4, arrivals=(0.0, 12.5, 30.0),
    )
    specs.update({
        "field/policy_params": base.with_policy_params(
            swap_size=4, quanta_length_s=0.2
        ),
        "field/llc": replace(base, llc="occupancy"),
        "field/topology_params": replace(
            base,
            topology=TopologyRef.of("scale128", {"smt": 1, "cores_per_socket": 4}),
        ),
        "field/migration": replace(base, migration=(0.02, 5e8, 2.0)),
        "field/invariants": replace(base, invariants=True),
        "field/arrivals": replace(base, workload=open_loop),
        "field/sizes": replace(
            base, workload=replace(open_loop, sizes=(1.0, 0.5, 2.0))
        ),
        "field/traffic": ExperimentSpec.for_traffic(
            phased_workload(threads_per_app=2), "cfs", seed=42,
            sim=SimParams(work_scale=0.1),
        ),
    })
    for wl, policy, params in TINY_GRID:
        specs[f"tiny-grid/{wl}/{policy}"] = ExperimentSpec.for_workload(
            workload(wl), policy, seed=7, policy_params=dict(params),
            sim=SimParams(work_scale=0.01),
        )
    return specs


def _recorded_keys() -> dict[str, str]:
    return json.loads(CACHE_KEYS.read_text())


RECORDED_SPECS = _recorded_specs()
#: table entries beyond the per-policy and per-topology ones
OTHER_RECORDED = tuple(
    name for name in RECORDED_SPECS
    if not name.startswith(("policy/", "topology/"))
)


if os.environ.get("REPRO_REGEN_GOLDEN"):

    def test_regenerate_cache_keys():
        keys = {name: spec.cache_key() for name, spec in RECORDED_SPECS.items()}
        CACHE_KEYS.write_text(json.dumps(keys, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"cache keys recorded in {CACHE_KEYS}")


class TestCacheKeyByteIdentity:
    """Specs must keep the cache keys `tests/golden/cache_keys.json`
    recorded, so object stores written by earlier revisions stay warm."""

    @pytest.mark.parametrize("name", POLICIES)
    def test_every_policy_keeps_its_legacy_key(self, name):
        key = f"policy/{name}"
        assert RECORDED_SPECS[key].cache_key() == _recorded_keys()[key]

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_topology_keeps_its_legacy_key(self, name):
        key = f"topology/{name}"
        assert RECORDED_SPECS[key].cache_key() == _recorded_keys()[key]

    @pytest.mark.parametrize("name", OTHER_RECORDED)
    def test_every_optional_field_keeps_its_key(self, name):
        assert RECORDED_SPECS[name].cache_key() == _recorded_keys()[name]

    def test_recorded_table_matches_the_built_specs(self):
        assert set(_recorded_keys()) == set(RECORDED_SPECS)
        assert _recorded_keys()["field/policy_params"] == (
            "00dd68e8c944462dc35b17db6368b99e0c5790f15336890695bb1a1a16f61a32"
        )

    def test_golden_key_pins_the_canonical_form(self):
        """Byte-for-byte pin of one known address.  Fails iff the hashed
        canonical form changes — exactly when cache SCHEMA_VERSION must
        be bumped, because old object stores would silently go cold."""
        exp = ExperimentSpec.for_workload(
            workload("wl2"), "dike", seed=42,
            policy_params={"swap_size": 4, "quanta_length_s": 0.2},
            sim=SimParams(work_scale=0.1),
        )
        golden = "00dd68e8c944462dc35b17db6368b99e0c5790f15336890695bb1a1a16f61a32"
        assert exp.cache_key() == golden

    def test_record_timeseries_still_excluded(self):
        with_trace = ExperimentSpec.for_workload(
            workload("wl1"), "dike",
            sim=SimParams(work_scale=0.1, record_timeseries=True),
        )
        without = ExperimentSpec.for_workload(
            workload("wl1"), "dike", sim=SimParams(work_scale=0.1)
        )
        assert with_trace.cache_key() == without.cache_key()
