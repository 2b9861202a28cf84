"""Golden determinism gate for the structure-of-arrays engine.

The engine's correctness story rests on reproducibility: a same-seed run
must produce bit-identical results and an identical event trace, run to
run and commit to commit.  This module pins that down against *checked-in*
goldens (``tests/golden/``): a canonical fingerprint of each policy's
``RunResult`` plus the full JSONL event trace, for CFS, DIO and Dike on a
tiny two-app workload — and result fingerprints of flat and hierarchical
Dike on the 128-vcore preset, where the Observer digests 16 process
groups (kmeans's barriers included) every quantum.  The sha256 of each
Dike run's cache wire form (``run_result_to_full_json``, prediction log
included) pins the bytes a campaign store writes, commit to commit.

The tiny Dike runs last five quanta: too short for bliss's four-quantum
bans, the LMS filters' four taps or the rebalancer's ten-quantum period.
So every registered policy is also pinned (fingerprint and wire sha256)
on Table II's wl1 at work scale 0.05, long enough for 20-67 quanta, with
lfoc and bliss under the occupancy LLC they are meant for; and the Dike
variants that rewrite a stage are pinned on scale128 as well, where the
rebalancer of ``dike-hier-fair`` fires.

If a PR intentionally changes simulation behaviour (new model, different
float-op ordering), regenerate the goldens and review the diff:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/sim/test_golden_determinism.py -q

An *unintentional* golden diff is a determinism regression — fix the code,
not the golden.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.runner import run_workload
from repro.experiments.serialization import run_result_to_full_json
from repro.policies import REGISTRY
from repro.obs.diff import diff_traces, load_events
from repro.obs.events import EventBus
from repro.obs.sinks import JsonlSink
from repro.sim.engine import SimulationEngine
from repro.sim.results import RunResult
from repro.sim.topology import SocketSpec, Topology
from repro.topologies import TOPOLOGY_REGISTRY
from repro.workloads.suite import WorkloadSpec, workload

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
POLICIES = ("cfs", "dio", "dike", "dike-af", "dike-ap")
SEED = 7
WORK_SCALE = 0.02
SCALE128_POLICIES = ("dike", "dike-hier")
SCALE128_APPS = (
    "jacobi", "streamcluster", "stream_omp", "needle", "lavaMD",
    "leukocyte", "srad", "hotspot", "heartwall",
)
SCALE128_WORK_SCALE = 0.02
#: Dike variants pinned on scale128, in a golden file of their own
SCALE128_VARIANTS = ("lfoc", "bliss", "dike-lms", "dike-hier-fair")
#: every registered policy, pinned on wl1
WL1_POLICIES = REGISTRY.names()
WL1_WORK_SCALE = 0.05
#: the LLC backend of a wl1 run, by policy (default: none)
WL1_LLC = {"lfoc": "occupancy", "bliss": "occupancy"}
#: runs whose cache wire bytes are pinned, as ``scenario/policy``
WIRE_POLICIES = ("dike", "dike-af", "dike-ap")
WIRE_KEYS = tuple(f"tiny/{p}" for p in WIRE_POLICIES) + tuple(
    f"scale128/{p}" for p in SCALE128_POLICIES
)


def _topology() -> Topology:
    return Topology(
        (
            SocketSpec(2.0, 2, 2, interconnect_gbps=8.0),
            SocketSpec(1.0, 2, 2, interconnect_gbps=3.0),
        ),
        memory_controller_gbps=10.0,
    )


def _workload() -> WorkloadSpec:
    return WorkloadSpec(
        name="golden-tiny",
        apps=("jacobi", "srad"),
        include_kmeans=False,
        threads_per_app=2,
    )


def golden_run(policy: str, trace_path: Path | None = None) -> RunResult:
    """One deterministic run of the golden scenario under ``policy``."""
    bus = EventBus()
    if trace_path is not None:
        bus.attach(JsonlSink(trace_path))
    groups = _workload().build(seed=SEED, work_scale=WORK_SCALE)
    engine = SimulationEngine(
        topology=_topology(),
        groups=groups,
        scheduler=REGISTRY.build(policy),
        seed=SEED,
        workload_name="golden-tiny",
        bus=bus,
    )
    result = engine.run()
    bus.close()
    return result


def scale128_run(policy: str) -> RunResult:
    """15 apps + kmeans, 8 threads each, filling the 128-vcore preset."""
    spec = WorkloadSpec(
        name="golden-scale128",
        apps=tuple(SCALE128_APPS[i % len(SCALE128_APPS)] for i in range(15)),
    )
    engine = SimulationEngine(
        topology=TOPOLOGY_REGISTRY.build("scale128"),
        groups=spec.build(seed=SEED, work_scale=SCALE128_WORK_SCALE),
        scheduler=REGISTRY.build(policy),
        seed=SEED,
        workload_name=spec.name,
        record_timeseries=False,
    )
    return engine.run()


def wl1_run(policy: str) -> RunResult:
    """Table II's wl1 (kmeans included) on the paper machine."""
    return run_workload(
        workload("wl1"),
        REGISTRY.build(policy),
        seed=SEED,
        work_scale=WL1_WORK_SCALE,
        llc=WL1_LLC.get(policy),
    )


def fingerprint(result: RunResult) -> dict:
    """Canonical, bit-exact summary of a ``RunResult``.

    ``repr`` round-trips float64 exactly, so two fingerprints are equal
    iff every number in them is bit-identical.
    """
    return {
        "policy": result.policy_name,
        "seed": result.seed,
        "makespan_s": repr(result.makespan_s),
        "n_quanta": result.n_quanta,
        "swap_count": result.swap_count,
        "migration_count": result.migration_count,
        "benchmarks": [
            {
                "benchmark": b.benchmark,
                "group_id": b.group_id,
                "thread_finish_times": [repr(t) for t in b.thread_finish_times],
                "n_migrations": b.n_migrations,
            }
            for b in result.benchmarks
        ],
    }


def wire_run(key: str) -> RunResult:
    scenario, policy = key.split("/")
    return (golden_run if scenario == "tiny" else scale128_run)(policy)


def wire_digest(result: RunResult) -> str:
    """sha256 of the run's cache wire form, the bytes a store writes."""
    return hashlib.sha256(run_result_to_full_json(result).encode()).hexdigest()


def _golden(*names: str) -> dict:
    """The checked-in golden files ``names``, merged."""
    merged: dict = {}
    for name in names:
        merged.update(json.loads((GOLDEN_DIR / name).read_text()))
    return merged


def _write(name: str, golden: dict) -> None:
    (GOLDEN_DIR / name).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    fingerprints = {}
    for policy in POLICIES:
        result = golden_run(policy, GOLDEN_DIR / f"tiny_{policy}.jsonl")
        fingerprints[policy] = fingerprint(result)
    (GOLDEN_DIR / "results.json").write_text(
        json.dumps(fingerprints, indent=1, sort_keys=True) + "\n"
    )
    scale128 = {p: fingerprint(scale128_run(p)) for p in SCALE128_POLICIES}
    (GOLDEN_DIR / "scale128_results.json").write_text(
        json.dumps(scale128, indent=1, sort_keys=True) + "\n"
    )
    wire = {key: wire_digest(wire_run(key)) for key in WIRE_KEYS}
    (GOLDEN_DIR / "wire_sha256.json").write_text(
        json.dumps(wire, indent=1, sort_keys=True) + "\n"
    )
    _write(
        "scale128_variant_results.json",
        {p: fingerprint(scale128_run(p)) for p in SCALE128_VARIANTS},
    )
    wl1 = {p: wl1_run(p) for p in WL1_POLICIES}
    _write("wl1_results.json", {p: fingerprint(r) for p, r in wl1.items()})
    _write("wl1_wire_sha256.json", {p: wire_digest(r) for p, r in wl1.items()})


if os.environ.get("REPRO_REGEN_GOLDEN"):

    def test_regenerate_goldens():
        _regen()
        pytest.skip(f"goldens regenerated under {GOLDEN_DIR}")

else:

    @pytest.mark.parametrize("policy", POLICIES)
    def test_same_seed_run_is_bit_identical(policy):
        a = fingerprint(golden_run(policy))
        b = fingerprint(golden_run(policy))
        assert a == b

    @pytest.mark.parametrize("policy", POLICIES)
    def test_result_matches_checked_in_golden(policy):
        golden = json.loads((GOLDEN_DIR / "results.json").read_text())
        assert fingerprint(golden_run(policy)) == golden[policy]

    @pytest.mark.parametrize("policy", SCALE128_POLICIES + SCALE128_VARIANTS)
    def test_scale128_result_matches_checked_in_golden(policy):
        golden = _golden("scale128_results.json", "scale128_variant_results.json")
        assert fingerprint(scale128_run(policy)) == golden[policy]

    @pytest.mark.parametrize("policy", WL1_POLICIES)
    def test_wl1_result_matches_checked_in_golden(policy):
        golden = _golden("wl1_results.json")
        assert fingerprint(wl1_run(policy)) == golden[policy]

    @pytest.mark.parametrize("policy", WL1_POLICIES)
    def test_wl1_wire_bytes_match_checked_in_golden(policy):
        golden = _golden("wl1_wire_sha256.json")
        assert wire_digest(wl1_run(policy)) == golden[policy]

    @pytest.mark.parametrize("key", WIRE_KEYS)
    def test_wire_bytes_match_checked_in_golden(key):
        golden = json.loads((GOLDEN_DIR / "wire_sha256.json").read_text())
        assert wire_digest(wire_run(key)) == golden[key]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_trace_diff_against_golden_is_clean(policy, tmp_path, capsys):
        trace = tmp_path / f"{policy}.jsonl"
        golden_run(policy, trace)
        golden = GOLDEN_DIR / f"tiny_{policy}.jsonl"
        diff = diff_traces(load_events(golden), load_events(trace))
        assert diff.identical, f"trace diverged from golden: {diff}"
        # The user-facing gate: ``repro trace-diff`` exits 0.
        assert cli_main(["trace-diff", str(golden), str(trace)]) == 0
        capsys.readouterr()
