"""Tests for the component registries: resolution, schemas, contracts.

The policy registry is the single resolution point for every layer
(runner, CLI, campaign, benchmarks, invariant checker), so these tests
are mostly *completeness properties* quantified over every registered
spec — a new policy registered with a broken schema or contract fails
here before it fails in a campaign.  The behaviours the policy and
topology registries share are tested once, over both
(:class:`TestBothRegistries`).
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.obs.invariants import RULES, InvariantSink
from repro.policies import (
    REGISTRY,
    ComponentRegistry,
    ParamSpec,
    PolicyRegistry,
    PolicySpec,
    UnknownPolicyError,
)
from repro.schedulers.base import Scheduler
from repro.topologies import TOPOLOGY_REGISTRY, UnknownTopologyError


class TestRegistryContents:
    def test_standard_policies_in_figure_order(self):
        standard = tuple(s.name for s in REGISTRY.tagged("standard"))
        assert standard == ("cfs", "dio", "dike", "dike-af", "dike-ap")

    def test_baselines_registered(self):
        names = set(REGISTRY.names())
        assert {"static", "oracle", "random", "suspension"} <= names

    def test_ablations_registered(self):
        names = {s.name for s in REGISTRY.tagged("ablation")}
        assert names == {"dike-no-predictor", "dike-no-decider"}

    def test_contains_and_len(self):
        assert "dike" in REGISTRY
        assert "oracle-static" in REGISTRY  # aliases count as known
        assert "no-such-policy" not in REGISTRY
        assert len(REGISTRY) == len(REGISTRY.names())


class TestEverySpec:
    """Properties every registered policy must satisfy."""

    @pytest.fixture(params=[s.name for s in REGISTRY.specs()])
    def spec(self, request) -> PolicySpec:
        return REGISTRY.get(request.param)

    def test_default_build_succeeds(self, spec):
        scheduler = spec.build()
        assert isinstance(scheduler, Scheduler)

    def test_scheduler_name_matches_registry_name(self, spec):
        built = spec.build()
        assert built.name == spec.name or built.name in spec.aliases

    def test_contract_nonempty_and_known(self, spec):
        assert spec.invariants, f"{spec.name} has an empty contract"
        assert set(spec.invariants) <= set(RULES)

    def test_doc_is_one_line(self, spec):
        assert spec.doc.strip()
        assert "\n" not in spec.doc

    def test_defaults_pass_own_schema(self, spec):
        factory = spec.from_params(spec.defaults())
        assert isinstance(factory(), Scheduler)

    def test_for_policy_uses_contract(self, spec):
        sink = InvariantSink.for_policy(spec.name)
        assert sink.rules == spec.invariants

    def test_describe_is_self_contained(self, spec):
        desc = spec.describe()
        assert desc["name"] == spec.name
        assert desc["invariants"] == list(spec.invariants)
        assert [p["name"] for p in desc["params"]] == list(spec.param_names())


class TestFromParams:
    def test_params_reach_the_scheduler(self):
        built = REGISTRY.build(
            "dike", {"swap_size": 4, "quanta_length_s": 0.25}
        )
        assert built.config.swap_size == 4
        assert built.config.quanta_length_s == 0.25

    def test_build_via_alias(self):
        assert REGISTRY.build("suspend").name in ("suspension", "suspend")

    def test_goal_not_a_parameter(self):
        # The goal is what distinguishes dike / dike-af / dike-ap; it is
        # fixed per registry entry, never swept.
        for name in ("dike", "dike-af", "dike-ap"):
            assert "goal" not in REGISTRY.get(name).param_names()


class TestStandardFactories:
    def test_covers_the_paper_figures(self):
        factories = REGISTRY.standard_factories()
        assert tuple(factories) == ("cfs", "dio", "dike", "dike-af", "dike-ap")

    def test_factories_build_fresh_instances(self):
        factories = REGISTRY.standard_factories()
        a, b = factories["dike"](), factories["dike"]()
        assert a is not b
        assert a.name == b.name == "dike"


class TestParamSpecValidation:
    def test_bool_is_not_int(self):
        p = ParamSpec(name="n", type=int, default=1)
        with pytest.raises(ValueError):
            p.validate(True)

    def test_int_is_not_bool(self):
        p = ParamSpec(name="flag", type=bool, default=False)
        with pytest.raises(ValueError):
            p.validate(1)

    def test_float_accepts_int(self):
        p = ParamSpec(name="x", type=float, default=1.0)
        assert p.validate(2) == 2

    def test_exclusive_minimum(self):
        p = ParamSpec(
            name="x", type=float, default=1.0, minimum=0.0, exclusive_min=True
        )
        with pytest.raises(ValueError):
            p.validate(0.0)
        assert p.validate(0.1) == 0.1

    def test_multiple_of(self):
        p = ParamSpec(name="n", type=int, default=2, multiple_of=2)
        with pytest.raises(ValueError):
            p.validate(3)

    def test_choices(self):
        p = ParamSpec(
            name="m", type=str, default="a", choices=("a", "b")
        )
        with pytest.raises(ValueError):
            p.validate("c")

    def test_nullable(self):
        p = ParamSpec(name="n", type=int, default=None, nullable=True)
        assert p.validate(None) is None
        strict = ParamSpec(name="n", type=int, default=0)
        with pytest.raises(ValueError):
            strict.validate(None)


class TestInvariantSinkResolution:
    def test_unknown_policy_raises_not_fallback(self):
        # The pre-registry behaviour silently fell back to default rules;
        # typos must now fail loudly.
        with pytest.raises(UnknownPolicyError):
            InvariantSink.for_policy("no-such-policy")

    def test_swap_budget_uses_swap_size(self):
        sink = InvariantSink.for_policy("dike", swap_size=4)
        assert sink.swap_size == 4

    def test_no_budget_rule_means_no_budget(self):
        # DIO swaps everything by design — no swap-budget rule, and an
        # override must not invent one.
        assert "swap-budget" not in REGISTRY.get("dio").invariants
        sink = InvariantSink.for_policy("dio", swap_size=4)
        assert sink.swap_size is None


#: What each registry is tested with: the kind words of its messages, an
#: alias, a spec with a schema, parameters that schema rejects, and a tag.
REGISTRIES = {
    "policies": SimpleNamespace(
        registry=REGISTRY,
        error=UnknownPolicyError,
        kind="policy",
        plural="policies",
        empty=PolicyRegistry,
        alias="oracle-static",
        canonical="oracle",
        target="dike",
        unknown_param="no_such_field",
        out_of_bounds=(
            {"swap_size": 3},  # odd
            {"swap_size": 0},
            {"quanta_length_s": 0.0},
        ),
        tag="cache-aware",
        tagged=("lfoc", "bliss"),
    ),
    "topologies": SimpleNamespace(
        registry=TOPOLOGY_REGISTRY,
        error=UnknownTopologyError,
        kind="topology",
        plural="topologies",
        empty=lambda: ComponentRegistry(UnknownTopologyError),
        alias="xeon_e5_heterogeneous",
        canonical="heterogeneous",
        target="scale128",
        unknown_param="n_socketz",
        out_of_bounds=({"smt": 3}, {"cores_per_socket": 0}),
        tag="paper",
        tagged=("heterogeneous", "homogeneous"),
    ),
}


class TestBothRegistries:
    """The behaviours the policy and topology registries share: both are
    :class:`ComponentRegistry` instances over `ComponentSpec` kinds."""

    @pytest.fixture(params=sorted(REGISTRIES))
    def case(self, request) -> SimpleNamespace:
        return REGISTRIES[request.param]

    def test_is_a_component_registry(self, case):
        assert isinstance(case.registry, ComponentRegistry)
        assert case.registry.error is case.error

    def test_unknown_name_raises(self, case):
        assert "martian" not in case.registry
        with pytest.raises(case.error) as exc:
            case.registry.get("martian")
        assert exc.value.name == "martian"
        assert exc.value.known == case.registry.names()
        assert str(exc.value) == (
            f"unknown {case.kind} 'martian'; known {case.plural}: "
            + ", ".join(case.registry.names())
        )
        # Call sites catch ValueError; the subclass must satisfy them.
        with pytest.raises(ValueError):
            case.registry.build("martian")

    def test_alias_resolves_to_canonical_spec(self, case):
        assert case.alias in case.registry
        assert case.alias not in case.registry.names()
        assert case.registry.get(case.alias) is case.registry.get(case.canonical)

    def test_duplicate_name_rejected(self, case):
        registry = case.empty()
        spec = case.registry.get(case.target)
        registry.register(spec)
        message = f"{case.kind} name {case.target!r} already registered"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            registry.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            case.registry.register(spec)

    def test_alias_collision_rejected(self, case):
        registry = case.empty()
        registry.register(case.registry.get(case.canonical))
        clashing = replace(
            case.registry.get(case.canonical), name=case.alias, aliases=()
        )
        message = f"{case.kind} name {case.alias!r} already registered"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            registry.register(clashing)

    def test_unknown_parameter_rejected(self, case):
        spec = case.registry.get(case.target)
        message = (
            f"unknown parameter(s) [{case.unknown_param!r}] for {case.kind} "
            f"{case.target!r}; known: {sorted(spec.param_names())}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec.from_params({case.unknown_param: 4})

    def test_out_of_bounds_rejected(self, case):
        spec = case.registry.get(case.target)
        for params in case.out_of_bounds:
            with pytest.raises(ValueError, match=f"parameter {next(iter(params))!r}"):
                spec.from_params(params)

    def test_tagged(self, case):
        tagged = case.registry.tagged(case.tag)
        assert tuple(s.name for s in tagged) == case.tagged
        assert tagged == tuple(s for s in case.registry if case.tag in s.tags)
        assert case.registry.tagged("no-such-tag") == ()

    def test_describe_is_json_clean(self, case):
        for spec in case.registry:
            desc = json.loads(json.dumps(spec.describe()))
            assert desc["name"] == spec.name
            assert desc["aliases"] == list(spec.aliases)
            assert [p["name"] for p in desc["params"]] == list(spec.param_names())
