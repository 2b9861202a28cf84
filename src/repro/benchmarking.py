"""Engine performance benchmarking: the ``repro bench`` harness.

The simulator's wall-clock cost is dominated by the engine's quantum loop,
so the tracked performance number is **quanta per second** — how many
scheduling quanta the engine retires per second of host time.  This module
defines the benchmark suite (workload × policy cases covering the three
policy cost classes: static, observe+predict, all-pairs churn), the
measurement protocol, and the regression comparison used by CI.

Protocol
--------
Each case is run once to warm caches (allocator pools, NumPy dispatch,
scheduler state classes), then ``repeats`` times; the **best** run is kept
— for a deterministic single-process workload the minimum wall time is the
least-noise estimate of the code's cost.  Runs use the zero-observer
configuration (no trace recording, no event sinks) that the large
parameter sweeps use, which is exactly the engine's fast path.

The JSON report (``BENCH_engine.json`` at the repo root) carries the
current results plus an optional ``reference`` block preserving the
numbers of an earlier engine for before/after comparison.  CI re-runs the
quick suite and fails when a case regresses more than 30 % against the
committed results (see :func:`compare`).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "BenchCase",
    "BatchBenchCase",
    "ScalingBenchCase",
    "FULL_SUITE",
    "QUICK_SUITE",
    "BATCHED_SUITE",
    "SCALING_SUITE",
    "run_case",
    "run_suite",
    "run_batch_case",
    "run_batched_suite",
    "run_scaling_case",
    "run_scaling_suite",
    "compare",
    "compare_scaling",
    "build_report",
    "write_report",
    "load_report",
    "DEFAULT_THRESHOLD",
    "DEFAULT_SCALING_THRESHOLD",
]

#: Relative quanta/s drop beyond which CI fails the perf-smoke job.
DEFAULT_THRESHOLD = 0.30

#: Relative rise in scheduler overhead-per-quantum beyond which the
#: scaling ratchet fails.  Wider than the throughput threshold: the
#: metric is microseconds of pure scheduler code, where per-quantum
#: jitter is proportionally larger than whole-run throughput noise.
DEFAULT_SCALING_THRESHOLD = 0.50


@dataclass(frozen=True)
class BenchCase:
    """One benchmark point: a workload under a policy at a fixed scale.

    ``name`` keys the results dict and must stay stable across engine
    versions — regression comparison matches cases by name.
    """

    name: str
    workload: str
    policy: str
    work_scale: float = 0.3
    seed: int = 1
    llc: str | None = None

    def scheduler_factory(self) -> Callable:
        from repro.policies import REGISTRY

        return REGISTRY.factory(self.policy)


def _suite(workloads: Sequence[str], policies: Sequence[str]) -> tuple[BenchCase, ...]:
    return tuple(
        BenchCase(name=f"{wl}/{p}", workload=wl, policy=p)
        for wl in workloads
        for p in policies
    )


def _wl_poisson():
    """Canonical open-loop bench load: 16 Poisson jobs at 0.2 jobs/s.

    Exercises the arrival-queue + live-window compaction path the closed
    suite workloads never touch (threads entering and leaving mid-run).
    """
    from repro.traffic import TrafficSpec

    return TrafficSpec.at_rate(0.2, n_jobs=16, trace_seed=0).workload()


#: Bench workloads that are not in the closed suite table: name -> builder.
OPEN_LOOP_WORKLOADS: dict[str, Callable] = {"wl-poisson": _wl_poisson}


#: The shared-LLC occupancy model adds per-quantum work to the engine's
#: hot loop, so it gets its own perf-gated case on the UM-heavy mix
#: (cache pressure is where the model actually iterates).
_LLC_CASE = BenchCase(name="wl7/dike+llc", workload="wl7", policy="dike", llc="occupancy")

#: Full tracked suite: the 40-thread Table II workload (wl1), a UM-heavy
#: mix (wl7) and a UC-heavy mix (wl12), each under the three policy cost
#: classes plus CFS, plus the open-loop Poisson scenario under CFS/Dike,
#: plus the occupancy-LLC engine path.
FULL_SUITE: tuple[BenchCase, ...] = _suite(
    ("wl1", "wl7", "wl12"), ("static", "cfs", "dike", "dio")
) + _suite(("wl-poisson",), ("cfs", "dike")) + (_LLC_CASE,)

#: CI smoke subset: the 40-thread workload (the acceptance target) plus
#: one open-loop case so the arrival path is perf-gated too, plus the
#: occupancy-LLC case so the cache model's cost stays gated.
QUICK_SUITE: tuple[BenchCase, ...] = _suite(
    ("wl1",), ("static", "cfs", "dike", "dio")
) + _suite(("wl-poisson",), ("cfs",)) + (_LLC_CASE,)


@dataclass(frozen=True)
class BatchBenchCase:
    """One batched-engine benchmark point: ``n_runs`` seeds of one
    workload/policy grid stepped together by `repro.sim.batch`.

    The tracked metric is the *aggregate* quanta/s of the whole grid; the
    result also records the serial scalar rate of the same grid on the
    same machine so the speedup is self-contained in the report.
    """

    name: str
    workload: str
    policy: str
    n_runs: int = 32
    work_scale: float = 0.3

    def scheduler_factory(self) -> Callable:
        from repro.policies import REGISTRY

        return REGISTRY.factory(self.policy)


#: Batched-engine suite: the acceptance grid (wl1/cfs × 32 seeds — CFS is
#: the vectorized-gate fast path) plus the same grid under static (the
#: zero-scheduler bound on batching gains).
BATCHED_SUITE: tuple[BatchBenchCase, ...] = (
    BatchBenchCase(name="batch32/wl1-cfs", workload="wl1", policy="cfs"),
    BatchBenchCase(name="batch32/wl1-static", workload="wl1", policy="static"),
)


def run_case(
    case: BenchCase,
    repeats: int = 3,
    topology_factory: Callable | None = None,
) -> dict:
    """Measure one case; returns quanta/s, quanta count and wall seconds.

    ``topology_factory`` (a validated zero-arg factory, e.g. from
    ``TOPOLOGY_REGISTRY.factory``) overrides the default paper machine —
    the CLI threads ``--topology`` through here.  Results measured on
    different machines are not ratchet-comparable; CI runs the default.
    """
    from repro.experiments.runner import run_workload
    from repro.workloads.suite import workload

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if case.workload in OPEN_LOOP_WORKLOADS:
        spec = OPEN_LOOP_WORKLOADS[case.workload]()
    else:
        spec = workload(case.workload)
    factory = case.scheduler_factory()

    def once() -> tuple[float, int]:
        topology = topology_factory() if topology_factory is not None else None
        t0 = time.perf_counter()
        result = run_workload(
            spec,
            factory(),
            seed=case.seed,
            work_scale=case.work_scale,
            topology=topology,
            record_timeseries=False,
            llc=case.llc,
        )
        return time.perf_counter() - t0, result.n_quanta

    once()  # warm-up: import costs, allocator pools, scheduler setup
    best_wall, n_quanta = min(once() for _ in range(repeats))
    return {
        "quanta_per_s": round(n_quanta / best_wall, 1),
        "n_quanta": n_quanta,
        "wall_s": round(best_wall, 4),
    }


def run_suite(
    cases: Sequence[BenchCase] = FULL_SUITE,
    repeats: int = 3,
    progress: Callable[[str, dict], None] | None = None,
    topology_factory: Callable | None = None,
) -> dict[str, dict]:
    """Run every case; ``progress`` is called after each with (name, result)."""
    results: dict[str, dict] = {}
    for case in cases:
        results[case.name] = run_case(
            case, repeats=repeats, topology_factory=topology_factory
        )
        if progress is not None:
            progress(case.name, results[case.name])
    return results


def _batch_lanes(case: BatchBenchCase) -> list:
    from repro.experiments.runner import build_engine, machine
    from repro.spec import TopologyRef
    from repro.workloads.suite import workload

    factory = case.scheduler_factory()
    if case.workload in OPEN_LOOP_WORKLOADS:
        spec = OPEN_LOOP_WORKLOADS[case.workload]()
    else:
        spec = workload(case.workload)
    topology = machine(TopologyRef())
    return [
        build_engine(
            spec, factory(), seed=seed, work_scale=case.work_scale,
            topology=topology, record_timeseries=False,
        )
        for seed in range(case.n_runs)
    ]


def run_batch_case(case: BatchBenchCase, repeats: int = 3) -> dict:
    """Measure one batched grid against its serial scalar execution.

    Both sides build their engines outside the timer (identical setup
    work), so the ratio isolates the stepping cost the batch engine
    amortises.  Engines are single-use; each repeat rebuilds them.
    """
    from repro.sim.batch import BatchEngine

    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    def once_batched() -> tuple[float, int]:
        lanes = _batch_lanes(case)
        engine = BatchEngine(lanes)
        t0 = time.perf_counter()
        results = engine.run()
        return time.perf_counter() - t0, sum(r.n_quanta for r in results)

    def once_scalar() -> tuple[float, int]:
        lanes = _batch_lanes(case)
        t0 = time.perf_counter()
        n_quanta = sum(lane.run().n_quanta for lane in lanes)
        return time.perf_counter() - t0, n_quanta

    once_batched()  # warm-up (imports, allocator pools, dispatch caches)
    once_scalar()
    batch_wall, n_quanta = min(once_batched() for _ in range(repeats))
    scalar_wall, scalar_quanta = min(once_scalar() for _ in range(repeats))
    batched_rate = n_quanta / batch_wall
    scalar_rate = scalar_quanta / scalar_wall
    return {
        "quanta_per_s": round(batched_rate, 1),
        "n_quanta": n_quanta,
        "wall_s": round(batch_wall, 4),
        "n_runs": case.n_runs,
        "scalar_quanta_per_s": round(scalar_rate, 1),
        "scalar_wall_s": round(scalar_wall, 4),
        "speedup_vs_scalar": round(batched_rate / scalar_rate, 2),
    }


def run_batched_suite(
    cases: Sequence[BatchBenchCase] = BATCHED_SUITE,
    repeats: int = 3,
    progress: Callable[[str, dict], None] | None = None,
) -> dict[str, dict]:
    """Run every batched case; same contract as :func:`run_suite`."""
    results: dict[str, dict] = {}
    for case in cases:
        results[case.name] = run_batch_case(case, repeats=repeats)
        if progress is not None:
            progress(case.name, results[case.name])
    return results


@dataclass(frozen=True)
class ScalingBenchCase:
    """One point of the scheduler-overhead vs. machine-size curve.

    The tracked metric is **scheduler microseconds per quantum** — wall
    time spent inside ``Scheduler.decide`` divided by the number of
    decisions, isolated from engine simulation cost by a delegating timer
    wrapper (:class:`_DecideTimer`).  Lower is better;
    :func:`compare_scaling` ratchets it one-sided like :func:`compare`.
    """

    name: str
    topology: str
    policy: str
    n_threads: int
    work_scale: float = 0.05
    seed: int = 1
    #: cap the run at this many quanta (``max_time_s`` = cap × quantum
    #: length) — the per-quantum cost stabilises after a handful
    max_quanta: int = 24


#: Apps cycled to synthesise machine-filling workloads (kmeans excluded:
#: its barriers make thread lifetimes, and hence the live population,
#: depend on scheduling, which would blur the size axis).
_SCALING_APPS = (
    "jacobi", "streamcluster", "stream_omp", "needle", "lavaMD",
    "leukocyte", "srad", "hotspot", "heartwall",
)


def _scaling_workload(n_threads: int):
    """A closed workload of ~``n_threads`` threads (8 per app instance)."""
    from repro.workloads.suite import WorkloadSpec

    threads_per_app = 8
    n_apps = max(1, n_threads // threads_per_app)
    apps = tuple(_SCALING_APPS[i % len(_SCALING_APPS)] for i in range(n_apps))
    return WorkloadSpec(
        name=f"scaling-{n_apps * threads_per_app}",
        apps=apps,
        include_kmeans=False,
        threads_per_app=threads_per_app,
    )


class _DecideTimer:
    """Delegating scheduler wrapper that times ``decide`` calls only.

    Everything else (``prepare``, ``quantum_length_s``, ``name``,
    ``describe`` ...) forwards to the wrapped scheduler, so the engine
    sees an unchanged policy and the measured seconds are pure scheduler
    decision cost — no engine simulation, no observability plumbing.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.decide_wall_s = 0.0
        self.n_decides = 0

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)

    def decide(self, counters, placement):
        t0 = time.perf_counter()
        actions = self._inner.decide(counters, placement)
        self.decide_wall_s += time.perf_counter() - t0
        self.n_decides += 1
        return actions


#: The machine-size ladder: the 40-vcore paper testbed, then the scale
#: presets.  Each size runs flat ``dike`` and hierarchical ``dike-hier``
#: so the committed report carries both curves side by side.
_SCALING_LADDER: tuple[tuple[str, int], ...] = (
    ("heterogeneous", 40),
    ("scale128", 128),
    ("scale256", 256),
    ("scale512", 512),
)

SCALING_SUITE: tuple[ScalingBenchCase, ...] = tuple(
    ScalingBenchCase(
        name=f"scaling/{policy}@{n_vcores}v",
        topology=topo,
        policy=policy,
        n_threads=n_vcores,
    )
    for topo, n_vcores in _SCALING_LADDER
    for policy in ("dike", "dike-hier")
)


def run_scaling_case(case: ScalingBenchCase, repeats: int = 3) -> dict:
    """Measure one scaling point; returns scheduler µs/quantum and context."""
    from repro.experiments.runner import build_engine, machine
    from repro.policies import REGISTRY
    from repro.spec import TopologyRef

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    spec = _scaling_workload(case.n_threads)
    factory = REGISTRY.factory(case.policy)
    topology = machine(TopologyRef(case.topology))

    def once() -> tuple[float, int, float]:
        scheduler = _DecideTimer(factory())
        engine = build_engine(
            spec, scheduler, seed=case.seed, work_scale=case.work_scale,
            topology=topology,
            max_time_s=float(scheduler.quantum_length_s()) * case.max_quanta,
            record_timeseries=False,
        )
        t0 = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - t0
        if not scheduler.n_decides:
            raise RuntimeError(f"{case.name}: no scheduling decisions timed")
        return (
            scheduler.decide_wall_s / scheduler.n_decides,
            scheduler.n_decides,
            wall,
        )

    once()  # warm-up: imports, allocator pools, per-policy state classes
    per_quantum, n_decides, wall = min(once() for _ in range(repeats))
    return {
        "overhead_us_per_quantum": round(per_quantum * 1e6, 2),
        "n_quanta": n_decides,
        "wall_s": round(wall, 4),
        "n_threads": case.n_threads,
        "topology": case.topology,
    }


def run_scaling_suite(
    cases: Sequence[ScalingBenchCase] = SCALING_SUITE,
    repeats: int = 3,
    progress: Callable[[str, dict], None] | None = None,
) -> dict[str, dict]:
    """Run every scaling case; same contract as :func:`run_suite`."""
    results: dict[str, dict] = {}
    for case in cases:
        results[case.name] = run_scaling_case(case, repeats=repeats)
        if progress is not None:
            progress(case.name, results[case.name])
    return results


def compare_scaling(
    current: Mapping[str, dict],
    baseline: Mapping[str, dict],
    threshold: float = DEFAULT_SCALING_THRESHOLD,
) -> list[str]:
    """Regressions for scaling cases *slower* than baseline by > threshold.

    Lower is better here (microseconds of scheduler time per quantum), so
    the one-sided check is inverted relative to :func:`compare`.
    """
    if not 0.0 < threshold:
        raise ValueError("threshold must be > 0")
    regressions = []
    for name in sorted(set(current) & set(baseline)):
        cur = float(current[name]["overhead_us_per_quantum"])
        base = float(baseline[name]["overhead_us_per_quantum"])
        if base <= 0.0:
            continue
        if cur > base * (1.0 + threshold):
            rise = 100.0 * (cur / base - 1.0)
            regressions.append(
                f"{name}: {cur:.0f} us/quantum vs baseline {base:.0f} "
                f"(+{rise:.0f}%, threshold +{threshold * 100:.0f}%)"
            )
    return regressions


def compare(
    current: Mapping[str, dict],
    baseline: Mapping[str, dict],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Regression messages for cases slower than ``baseline`` by > threshold.

    Cases present on only one side are ignored (suites may evolve); the
    check is one-sided — getting faster never fails.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    regressions = []
    for name in sorted(set(current) & set(baseline)):
        cur = float(current[name]["quanta_per_s"])
        base = float(baseline[name]["quanta_per_s"])
        if base <= 0.0:
            continue
        if cur < base * (1.0 - threshold):
            drop = 100.0 * (1.0 - cur / base)
            regressions.append(
                f"{name}: {cur:.0f} quanta/s vs baseline {base:.0f} "
                f"(-{drop:.0f}%, threshold -{threshold * 100:.0f}%)"
            )
    return regressions


def build_report(
    results: Mapping[str, dict],
    repeats: int,
    reference: Mapping | None = None,
    batched: Mapping[str, dict] | None = None,
    scaling: Mapping[str, dict] | None = None,
) -> dict:
    """The benchmark report document (stable key order, no timestamps).

    ``batched`` carries the batched-engine suite (aggregate quanta/s per
    grid plus the serial scalar rate measured alongside) under its own
    top-level block, keeping the scalar ``results`` ratchet unchanged.
    ``scaling`` likewise carries the scheduler-overhead-vs-machine-size
    curve (flat ``dike`` vs ``dike-hier``; µs/quantum, lower is better).
    """
    report: dict = {
        "schema": 1,
        "protocol": {
            "metric": "quanta_per_s (best of repeats, after one warm-up run)",
            "repeats": repeats,
            "record_timeseries": False,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": {k: dict(results[k]) for k in sorted(results)},
    }
    if reference is not None:
        report["reference"] = dict(reference)
    if batched is not None:
        report["batched"] = {k: dict(batched[k]) for k in sorted(batched)}
    if scaling is not None:
        report["scaling"] = {k: dict(scaling[k]) for k in sorted(scaling)}
    return report


def write_report(
    path: str | Path,
    results: Mapping[str, dict],
    repeats: int,
    reference: Mapping | None = None,
    batched: Mapping[str, dict] | None = None,
    scaling: Mapping[str, dict] | None = None,
) -> None:
    """Write the benchmark report JSON (see :func:`build_report`)."""
    report = build_report(
        results, repeats, reference=reference, batched=batched, scaling=scaling
    )
    Path(path).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def load_report(path: str | Path) -> dict:
    """Load a report; accepts either the full schema or a bare results map."""
    data = json.loads(Path(path).read_text())
    if "results" not in data:
        data = {"schema": 0, "results": data}
    return data
