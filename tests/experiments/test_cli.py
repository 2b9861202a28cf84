"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

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


class TestPoliciesVerb:
    def test_table_lists_every_policy(self, capsys):
        from repro.policies import REGISTRY

        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out

    def test_tag_filters_table_and_names(self, capsys):
        assert main(["policies", "--tag", "cache-aware"]) == 0
        out = capsys.readouterr().out
        assert "lfoc" in out and "bliss" in out
        assert "tagged 'cache-aware'" in out
        assert "\ncfs " not in out

        assert main(["policies", "--names", "--tag", "cache-aware"]) == 0
        names = capsys.readouterr().out.split()
        assert sorted(names) == ["bliss", "lfoc"]

    def test_tag_filters_json(self, capsys):
        assert main(["policies", "--json", "--tag", "cache-aware"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert {s["name"] for s in specs} == {"bliss", "lfoc"}
        for s in specs:
            assert "cache-aware" in s["tags"]

    def test_unknown_tag_exits_two_listing_known(self, capsys):
        assert main(["policies", "--tag", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err and "cache-aware" in err
