"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _parse_param_grid, build_parser, main
from repro.topologies import parse_topology_arg


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_scale_and_seed_parsed(self):
        args = build_parser().parse_args(
            ["run", "tab1", "--scale", "0.1", "--seed", "42"]
        )
        assert args.scale == 0.1
        assert args.seed == 42


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "tab3" in out

    def test_run_tab1(self, capsys):
        assert main(["run", "tab1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_run_tab2(self, capsys):
        assert main(["run", "tab2"]) == 0
        assert "wl16" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "wl1", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "dike-ap" in out and "fairness" in out

    def test_run_fig8_small(self, capsys):
        assert main(["run", "fig8", "--scale", "0.02"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_timeline(self, capsys):
        assert main(["timeline", "wl1", "dike", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Placement timeline" in out

    def test_timeline_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["timeline", "wl1", "not-a-policy"])


class TestCampaignCommand:
    def test_dry_run_prints_the_plan_and_runs_nothing(self, capsys, tmp_path):
        code = main(
            ["campaign", "--dry-run", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "16 workloads x 5 policies x 1 seeds" in out
        assert "to run 80" in out
        assert not (tmp_path / "cache" / "index.jsonl").exists()

    def test_small_grid_then_resume_from_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = [
            "campaign", "--workloads", "wl1", "--policies", "cfs,dike",
            "--scale", "0.01", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "cached 0, to run 2" in first.out
        assert "| cfs" in first.out and "| dike" in first.out

        assert main(argv) == 0  # resumed run: everything from cache
        second = capsys.readouterr()
        assert "cached 2, to run 0" in second.out
        assert "2 cache hits" in second.err
        assert "0 executed" in second.err

    def test_no_cache_skips_the_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [
            "campaign", "--workloads", "wl1", "--policies", "cfs",
            "--scale", "0.01", "--no-cache",
        ]
        assert main(argv) == 0
        assert not (tmp_path / ".campaign").exists()


class TestParamValues:
    """``--param`` cells and ``name:key=value`` refs parse values alike."""

    @pytest.mark.parametrize(
        "raw, value",
        [("TRUE", True), ("False", False), ("4", 4), ("0.5", 0.5), ("fast", "fast")],
    )
    def test_param_cell_equals_ref_value(self, raw, value):
        ((key, (cell,)),) = _parse_param_grid([f"knob={raw}"])
        _, params = parse_topology_arg(f"dike:knob={raw}")
        assert key == "knob"
        assert cell == params["knob"] == value
        assert type(cell) is type(params["knob"]) is type(value)

    def test_upper_case_bool_passes_the_schema(self, capsys, tmp_path):
        argv = [
            "campaign", "--dry-run", "--workloads", "wl1", "--policies", "dike",
            "--param", "rotation_fallback=TRUE,False",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "to run 2" in capsys.readouterr().out


class TestSharedFlagSurface:
    """run/report/all/campaign/bench/trace share one flag vocabulary."""

    OPERANDS = {
        "run": ["tab1"],
        "report": [],
        "all": [],
        "campaign": [],
        "bench": [],
        "trace": ["wl1"],
    }

    @pytest.mark.parametrize("command", sorted(OPERANDS))
    def test_backend_and_quick_flags_parse_everywhere(self, command, tmp_path):
        argv = [command, *self.OPERANDS[command],
                "--quick", "--workers", "3",
                "--cache-dir", str(tmp_path),
                "--trace-out", str(tmp_path / "t.jsonl"),
                "--invariants"]
        args = build_parser().parse_args(argv)
        assert args.quick is True
        assert args.workers == 3
        assert args.cache_dir == str(tmp_path)
        assert args.trace_out == str(tmp_path / "t.jsonl")
        assert args.invariants is True

    def test_quick_resolves_to_smoke_scale(self):
        from repro.cli import QUICK_SCALE, _resolve_shared_flags

        args = build_parser().parse_args(["run", "tab1", "--quick"])
        _resolve_shared_flags(args)
        assert args.scale == QUICK_SCALE

    def test_explicit_scale_beats_quick(self):
        from repro.cli import _resolve_shared_flags

        args = build_parser().parse_args(
            ["run", "tab1", "--quick", "--scale", "0.5"]
        )
        _resolve_shared_flags(args)
        assert args.scale == 0.5

    def test_workers_default_depends_on_command(self):
        from repro.cli import _resolve_shared_flags

        inline = build_parser().parse_args(["run", "tab1"])
        _resolve_shared_flags(inline)
        assert inline.workers == 1

        grid = build_parser().parse_args(["campaign"])
        _resolve_shared_flags(grid)
        assert grid.workers == 2


class TestTraceDiffCommand:
    GOLDEN = Path(__file__).resolve().parent.parent / "golden"

    def test_identical_traces_exit_zero(self, capsys):
        golden = str(self.GOLDEN / "tiny_dike.jsonl")
        assert main(["trace-diff", golden, golden]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_traces_exit_one(self, capsys):
        code = main([
            "trace-diff",
            str(self.GOLDEN / "tiny_cfs.jsonl"),
            str(self.GOLDEN / "tiny_dike.jsonl"),
        ])
        assert code == 1
        assert "diverg" in capsys.readouterr().out

    def test_json_output_round_trips(self, capsys):
        from repro.obs.diff import DivergenceReport

        code = main([
            "trace-diff", "--json",
            str(self.GOLDEN / "tiny_cfs.jsonl"),
            str(self.GOLDEN / "tiny_dike.jsonl"),
        ])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        report = DivergenceReport.from_dict(doc)
        assert not report.identical
        assert report.to_dict() == doc

    def test_schema_version_mismatch_exits_two(self, capsys, tmp_path):
        golden = self.GOLDEN / "tiny_dike.jsonl"
        bumped = tmp_path / "future.jsonl"
        lines = golden.read_text().splitlines()
        bumped.write_text(
            "\n".join(json.dumps(dict(json.loads(l), v=99)) for l in lines)
            + "\n"
        )
        code = main(
            ["trace-diff", "--no-validate", str(golden), str(bumped)]
        )
        assert code == 2
        assert "schema" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code = main([
            "trace-diff",
            str(self.GOLDEN / "tiny_dike.jsonl"),
            str(tmp_path / "nope.jsonl"),
        ])
        assert code == 2
        assert capsys.readouterr().err


class _RegistryVerb:
    """The cases of a registry-listing verb; ``repro policies`` and
    ``repro topologies`` share one listing and one ``--check`` body, and
    each subclass runs every case over one of them."""

    verb: str
    #: dotted path of the verb's registry (monkeypatched by the check cases)
    registry_path: str
    #: a tag, the names carrying it in registration order, a name without it
    tag: str
    tagged: tuple[str, ...]
    other: str

    @property
    def registry(self):
        import importlib

        module, _, attr = self.registry_path.rpartition(".")
        return getattr(importlib.import_module(module), attr)

    def test_table_lists_every_spec(self, capsys):
        assert main([self.verb]) == 0
        out = capsys.readouterr().out
        registry = self.registry
        assert f"{len(registry)} registered {registry.error.plural}" in out
        for name in registry.names():
            assert name in out

    def test_tag_filters_table_and_names(self, capsys):
        assert main([self.verb, "--tag", self.tag]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in self.tagged)
        assert f"tagged {self.tag!r}" in out
        assert f"\n{self.other} " not in out

        assert main([self.verb, "--names", "--tag", self.tag]) == 0
        assert tuple(capsys.readouterr().out.split()) == self.tagged

    def test_tag_filters_json(self, capsys):
        assert main([self.verb, "--json", "--tag", self.tag]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert tuple(s["name"] for s in specs) == self.tagged
        for s in specs:
            assert self.tag in s["tags"]

    def test_unknown_tag_exits_two_listing_known(self, capsys):
        assert main([self.verb, "--tag", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"no {self.registry.error.kind} carries tag 'nope'" in captured.err
        assert self.tag in captured.err

    def test_check_passes(self, capsys):
        registry = self.registry
        assert main([self.verb, "--check"]) == 0
        captured = capsys.readouterr()
        n_params = sum(len(s.params) for s in registry)
        assert captured.out == (
            f"{registry.error.kind} registry OK ({len(registry)} "
            f"{registry.error.plural}, {n_params} parameters checked)\n"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("fault", ["factory", "alias", "defaults"])
    def test_check_fails_on_a_broken_spec(self, fault, capsys, monkeypatch):
        from dataclasses import replace

        from repro.policies import ComponentRegistry, ParamSpec

        registry = self.registry
        broken = ComponentRegistry(registry.error)
        # The registry's first spec with an alias, and its first without.
        aliased = next(s for s in registry if s.aliases)
        plain = next(s for s in registry if not s.aliases)
        broken.register(aliased)
        if fault == "factory":
            def boom(**params):
                raise RuntimeError("boom")

            broken.register(replace(plain, factory=boom))
            expected = f"{plain.name}: default factory failed: boom"
        elif fault == "alias":
            broken.register(plain)
            broken._aliases[aliased.aliases[0]] = plain.name
            expected = (
                f"{aliased.name}: alias {aliased.aliases[0]!r} resolves to a "
                "different spec"
            )
        else:
            odd = ParamSpec(plain.params[0].name, int, 3, multiple_of=2)
            broken.register(replace(plain, params=(odd, *plain.params[1:])))
            expected = (
                f"{plain.name}: schema defaults fail their own validation: "
                f"parameter {odd.name!r} must be a multiple of 2, got 3"
            )
        monkeypatch.setattr(self.registry_path, broken)
        assert main([self.verb, "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"{registry.error.kind} registry check FAILED (")
        assert f"  {expected}" in lines[1:]


class TestPoliciesVerb(_RegistryVerb):
    verb = "policies"
    registry_path = "repro.policies.REGISTRY"
    tag, tagged, other = "cache-aware", ("lfoc", "bliss"), "cfs"


class TestTopologiesVerb(_RegistryVerb):
    verb = "topologies"
    registry_path = "repro.topologies.TOPOLOGY_REGISTRY"
    tag, tagged, other = "paper", ("heterogeneous", "homogeneous"), "scale128"


class TestBadInputExitsTwo:
    """Bad command-line input is a usage error (exit 2), never a
    traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "wl99"],
            ["compare", "nope"],
            ["replicate", "wl99"],
            ["timeline", "wl99", "dike"],
            ["replicate", "wl1", "--seeds", "0"],
            ["bench", "--repeats", "0"],
            ["report", "--seeds", "0", "--scale", "0.001"],
            ["campaign", "--workers", "0", "--dry-run", "--no-cache"],
            ["traffic", "--jobs", "-1", "--dry-run", "--no-cache"],
            ["tune", "--budget", "0", "--no-cache"],
            ["trace", "wl1", "--max-bytes", "0", "--scale", "0.005"],
        ],
        ids=" ".join,
    )
    def test_rejected_when_parsed(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "expected an integer >= 1" in err

    def test_timeline_policies_are_the_registry_names(self):
        from repro.policies import REGISTRY

        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        timeline = sub.choices["timeline"]
        (policy,) = [a for a in timeline._actions if a.dest == "policy"]
        assert tuple(policy.choices) == REGISTRY.names()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["--policies", "cfs,dike", "--param", "swap_sise=4,8"], "swap_sise"),
            (["--param", "swap_size=4", "--param", "swap_size=8"], "swap_size"),
            (
                ["--policies", "bliss,dike-hier", "--param", "rebalance_period=2",
                 "--param", "blacklist_quanta=2"],
                "blacklist_quanta",
            ),
        ],
        ids=["unknown-key", "key-twice", "no-policy-takes-the-grid"],
    )
    def test_param_grid_rejects_what_it_would_drop(self, argv, key, capsys):
        code = main(["campaign", "--dry-run", "--no-cache", "--workloads", "wl1", *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and repr(key) in captured.err

    @pytest.mark.parametrize(
        "flag, arg",
        [
            ("--policy", "dike:swap_size=4,swap_size=8"),
            ("--topology", "multi-socket:n_sockets=2,n_sockets=8"),
        ],
    )
    def test_ref_key_given_twice(self, flag, arg, capsys, tmp_path):
        code = main([
            "trace", "wl1", "--scale", "0.005", flag, arg,
            "--out", str(tmp_path / "t.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "given more than once" in err
        assert not (tmp_path / "t.jsonl").exists()


class TestGrammarFuzz:
    """The ``name[:key=value,...]`` and ``KEY=V1[,V2...]`` grammars reject
    arbitrary text with ``ValueError`` only."""

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_refs_raise_only_value_error(self, text):
        from repro.spec import PolicyRef, TopologyRef

        for ref in (PolicyRef, TopologyRef):
            for arg in (text, f"dike:{text}", f"scale128:{text}"):
                try:
                    ref.from_arg(arg)
                except ValueError:
                    pass

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=30),
                st.builds(
                    "{}={}".format,
                    st.sampled_from(["swap_size", "smt", "", " x"]),
                    st.text(max_size=20),
                ),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_param_grid_raises_only_value_error(self, entries):
        from repro.campaign import CampaignSpec

        try:
            grid = _parse_param_grid(entries)
            CampaignSpec(workloads=("wl1",), policies=("cfs", "dike"), param_grid=grid)
        except ValueError:
            pass
