"""Tests for the topology registry (`repro.topologies`): the presets,
the CLI argument grammar, preset shapes and the `SimParams` cache-key
integration.  What the topology registry shares with the policy
registry is tested over both in tests/policies/test_registry.py."""

from __future__ import annotations

import pytest

from repro.topologies import TOPOLOGY_REGISTRY, parse_topology_arg


class TestRegistryResolution:
    def test_all_presets_registered(self):
        names = TOPOLOGY_REGISTRY.names()
        for expected in (
            "heterogeneous", "homogeneous", "multi-socket",
            "scale128", "scale256", "scale512", "scale1024",
        ):
            assert expected in names


class TestPresetShapes:
    @pytest.mark.parametrize(
        "name,n_vcores",
        [
            ("heterogeneous", 40),
            ("homogeneous", 40),
            ("multi-socket", 128),
            ("scale128", 128),
            ("scale256", 256),
            ("scale512", 512),
            ("scale1024", 1024),
        ],
    )
    def test_default_vcore_counts(self, name, n_vcores):
        assert TOPOLOGY_REGISTRY.build(name).n_vcores == n_vcores

    def test_scale_presets_are_heterogeneous(self):
        topo = TOPOLOGY_REGISTRY.build("scale256")
        assert topo.is_heterogeneous
        assert topo.n_sockets == 8

    def test_params_resize_the_machine(self):
        topo = TOPOLOGY_REGISTRY.build("scale128", {"cores_per_socket": 4, "smt": 1})
        assert topo.n_vcores == 4 * 4 * 1


class TestValidation:
    def test_factory_is_annotated_and_prevalidated(self):
        fac = TOPOLOGY_REGISTRY.factory("scale128", {"smt": 1})
        a, b = fac(), fac()
        assert a is not b and a.n_vcores == b.n_vcores == 64

    def test_defaults_round_trip(self):
        for spec in TOPOLOGY_REGISTRY:
            assert spec.validate_params(spec.defaults()) == spec.defaults()


class TestParseTopologyArg:
    def test_bare_name(self):
        assert parse_topology_arg("scale256") == ("scale256", {})

    def test_typed_values(self):
        name, params = parse_topology_arg("multi-socket:n_sockets=8,max_ghz=2.5,smt=2")
        assert name == "multi-socket"
        assert params == {"n_sockets": 8, "max_ghz": 2.5, "smt": 2}
        assert isinstance(params["n_sockets"], int)
        assert isinstance(params["max_ghz"], float)

    def test_bool_and_str_values(self):
        _, params = parse_topology_arg("x:flag=true,label=fast")
        assert params == {"flag": True, "label": "fast"}

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="empty name"):
            parse_topology_arg(":smt=2")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="expected key=value"):
            parse_topology_arg("scale128:smt")

    @pytest.mark.parametrize(
        "arg", ["dike:swap_size=4,swap_size=8", "multi-socket:n_sockets=2, n_sockets=8"]
    )
    def test_key_given_twice_rejected(self, arg):
        with pytest.raises(ValueError, match="parameter '(swap_size|n_sockets)' given more than once"):
            parse_topology_arg(arg)


class TestFacade:
    def test_top_level_exports(self):
        import repro

        assert repro.TOPOLOGY_REGISTRY is TOPOLOGY_REGISTRY
        for name in (
            "ComponentRegistry", "TopologySpec", "UnknownTopologyError",
            "parse_topology_arg", "multi_socket", "Topology",
            "run_scenario", "PolicyRegistry",
        ):
            assert hasattr(repro, name)
            assert name in repro.__all__


class TestSimParamsIntegration:
    @staticmethod
    def _spec(**sim):
        from repro.campaign.spec import SimParams
        from repro.spec import ExperimentSpec
        from repro.workloads.suite import workload

        return ExperimentSpec.for_workload(
            workload("wl1"), "dike", sim=SimParams(work_scale=0.05, **sim)
        )

    def test_topology_params_omitted_when_default(self):
        from repro.campaign.cachekey import task_fingerprint

        out = task_fingerprint(self._spec())["sim"]
        assert "topology_params" not in out  # pre-existing cache keys survive

    def test_topology_params_sorted_and_serialized_when_set(self):
        from repro.campaign.cachekey import task_fingerprint

        spec = self._spec(
            topology="scale128",
            topology_params=(("smt", 1), ("cores_per_socket", 4)),
        )
        assert spec.topology.params == (("cores_per_socket", 4), ("smt", 1))
        out = task_fingerprint(spec)["sim"]
        assert out["topology"] == "scale128"
        assert out["topology_params"] == [["cores_per_socket", 4], ["smt", 1]]

    def test_bad_topology_params_rejected_at_construction(self):
        with pytest.raises(ValueError):
            self._spec(topology="scale128", topology_params=(("martian", 1),))
