"""Tests of the benchmark itself: ``pytest bench/``."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.campaign import Campaign  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

#: per-layer metric -> the only workloads where it is nonzero
BYPASSED = {
    "llc.resolve_us_per_q": {"poisson-llc"},
    "batch.self_us_per_q": {"batch-seeds"},
    "store.get_ms_per_hit": {"warm-replay"},
    "serialize.decode_ms_per_hit": {"warm-replay"},
    "traffic.summarize_ms_per_run": {"poisson-llc"},
}
#: per-layer metric -> workloads where it must be nonzero
MAPPED = {
    "campaign.self_ms_per_run": set(NAMES),
    "campaign.cache_key_us_per_task": set(NAMES),
    "store.put_ms_per_run": {"paper-grid", "batch-seeds", "poisson-llc", "scale512-dike"},
    "engine.self_us_per_q": {"paper-grid", "poisson-llc", "scale512-dike"},
    "engine.build_ms_per_run": {"paper-grid", "batch-seeds", "poisson-llc", "scale512-dike"},
    "smt.us_per_q": {"paper-grid", "poisson-llc"},
    "memory.solve_us_per_q": {"paper-grid", "poisson-llc"},
    "memory.iters_per_solve": {"paper-grid", "poisson-llc"},
    "state.us_per_q": {"paper-grid", "batch-seeds", "poisson-llc"},
    "state.migrations": {"paper-grid", "scale512-dike"},
    "batch.lanes_per_unit": {"batch-seeds"},
    "sched.decide_us_per_q": {"paper-grid", "scale512-dike"},
    "dike.observer_us_per_q": {"paper-grid", "batch-seeds", "scale512-dike"},
    "dike.pairs_proposed": {"paper-grid", "scale512-dike"},
    "dike.cluster_us_per_q": {"scale512-dike"},
    "traffic.solo_runs": {"poisson-llc"},
    **BYPASSED,
}
#: layers that simulate, so do nothing when every run is a cache hit
SIMULATING = ("engine.", "smt.", "memory.", "state.", "llc.", "batch.", "sched.", "dike.")


def run_cli(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def untraced() -> list[str]:
    return run_cli("--trace", "0")


@pytest.fixture(scope="module")
def traced() -> tuple[list[str], dict]:
    lines = run_cli("--trace", "1")
    return lines, json.loads((BENCH / "out" / "layers.json").read_text())


def assert_prints(lines: list[str], metrics: list[dict]) -> dict:
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in NAMES:
        for m in metrics:
            name, unit = m["name"], m["unit"]
            assert any(
                line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
                for line in lines
            ), (workload, name)
            assert last["metrics"][f"{workload}.{name}"]["unit"] == unit
    return last


def test_untraced_smoke_prints_every_end_to_end_metric(untraced):
    last = assert_prints(untraced, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_smoke_prints_every_per_layer_metric(traced):
    assert_prints(traced[0], SPEC["per_layer"])


def test_self_times_sum_to_traced_wall(traced):
    tracer = Tracer()
    for workload in NAMES:
        with (BENCH / "out" / f"{workload}.spans.jsonl").open() as fh:
            tracer.spans = [tuple(json.loads(line).values()) for line in fh]
        total = sum(tracer.self_times().values())
        wall_ns = traced[1][workload]["traced_wall_s"] * 1e9
        assert abs(total / wall_ns - 1.0) <= 0.03, workload


def test_layers_work_where_mapped_and_nowhere_they_are_bypassed(traced):
    layers = {w: traced[1][w]["metrics"] for w in NAMES}
    for metric, busy in MAPPED.items():
        for workload in busy:
            assert layers[workload][metric] > 0, (metric, workload)
    for metric, busy in BYPASSED.items():
        for workload in set(NAMES) - busy:
            assert layers[workload][metric] == 0, (metric, workload)
    for metric, value in layers["warm-replay"].items():
        if metric.startswith(SIMULATING):
            assert value == 0, metric


def test_corrupted_fingerprint_counts_as_failed(tmp_path):
    expected = checks.load_expected("paper-grid")
    label = next(iter(expected))
    checks.write_expected("paper-grid", {**expected, label: "0" * 64}, tmp_path)
    report = workloads.measure("paper-grid", smoke=True, seconds=0, expected_dir=tmp_path)
    assert report["fingerprints"] == "checked"
    assert report["failed"] == workloads.MIN_REPEATS  # that run, once per repeat


def test_batched_fingerprints_equal_scalar_runs():
    specs = [s for s in workloads.BatchSeeds().specs(1, smoke=True) if s.seed == 1]
    results = Campaign(executor=workloads.SERIAL).gather(specs)
    expected = checks.load_expected("batch-seeds")
    assert {s.label(): checks.fingerprint(r) for s, r in zip(specs, results)} == {
        s.label(): expected[s.label()] for s in specs
    }


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_bench_imports_no_private_repro_name():
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                parts = node.module.split(".") + [a.name for a in node.names]
                assert not any(map(private, parts)), (path.name, node.module)
                modules.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        assert not any(map(private, alias.name.split(".")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules | {"repro"}:
                    assert not private(node.attr), (path.name, node.attr)


def test_bench_raises_no_deprecation_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name in NAMES:
            for trace in (False, True):
                workloads.measure(name, smoke=True, seconds=0, trace=trace)
    from_bench = [
        w for w in caught
        if issubclass(w.category, DeprecationWarning) and Path(w.filename).parent == BENCH
    ]
    assert not from_bench, [str(w.message) for w in from_bench]
