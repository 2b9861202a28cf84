"""Declarative simulation tasks: everything a worker process needs.

A :class:`TaskSpec` is a frozen, picklable, JSON-able description of one
``run_workload`` invocation — workload, policy, policy parameters, seed
and simulator parameters — with **no live objects** (schedulers are
stateful, topologies carry NumPy arrays).  Workers rebuild the live
objects from the spec via :func:`execute_task`, which is the *only*
execution path of the campaign subsystem; the spec's canonical dict
(:meth:`TaskSpec.to_dict`) is what the cache key hashes.

Policies are referenced by their `repro.policies` registry name;
parameters are passed as a sorted tuple of ``(key, value)`` pairs so
equal parameterisations compare and hash equal regardless of
construction order.  Parameters are *validated* against the policy's
declarative schema when the spec is built (out-of-bounds values fail at
planning time, in the submitting process) but stored raw — the cache key
hashes exactly the values the caller supplied, never a coerced form, so
historical cache entries stay addressable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.policies import REGISTRY
from repro.schedulers.base import Scheduler
from repro.sim.migration import MigrationModel
from repro.sim.results import RunResult
from repro.sim.topology import Topology
from repro.topologies import TOPOLOGY_REGISTRY
from repro.util.rng import DEFAULT_SEED
from repro.util.validation import require
from repro.workloads.suite import WorkloadSpec

__all__ = [
    "WorkloadRef",
    "SimParams",
    "TaskSpec",
    "KNOWN_POLICIES",
    "TOPOLOGIES",
    "build_scheduler",
    "build_topology",
    "task_engine",
    "finish_task",
    "execute_task",
]

#: Policy names the campaign layer can instantiate — an import-time
#: snapshot of the registry (kept as a tuple for backward compatibility;
#: the registry itself is the source of truth).
KNOWN_POLICIES: tuple[str, ...] = REGISTRY.names()


def __getattr__(name: str):
    # Deprecated: the topology name table moved into the topology registry
    # (`repro.topologies.TOPOLOGY_REGISTRY`); this shim keeps the old
    # ``TOPOLOGIES`` mapping importable.
    if name == "TOPOLOGIES":
        warnings.warn(
            "repro.campaign.TOPOLOGIES is deprecated; resolve topology "
            "names through repro.topologies.TOPOLOGY_REGISTRY",
            DeprecationWarning,
            stacklevel=2,
        )
        return {spec.name: spec.factory for spec in TOPOLOGY_REGISTRY}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class WorkloadRef:
    """A workload by value: the four `WorkloadSpec` fields, nothing more.

    Suite workloads (``wl1`` .. ``wl16``) and ad-hoc specs (standalone
    runs, test workloads) serialise identically — the reference carries
    the full recipe, so a worker process can rebuild the spec without any
    registry lookup.

    Open-system workloads add ``arrivals`` (one arrival time per entry of
    ``apps``, which then lists each *job's* application in order) and
    optionally ``sizes`` (per-job work multipliers); both serialise only
    when set, so closed workloads keep their historical cache keys.
    """

    name: str
    apps: tuple[str, ...]
    include_kmeans: bool = True
    threads_per_app: int = 8
    arrivals: tuple[float, ...] = ()
    sizes: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.arrivals:
            require(
                len(self.arrivals) == len(self.apps),
                "arrivals must align 1:1 with apps",
            )
            require(
                not self.include_kmeans,
                "open-system workloads carry no implicit kmeans instance",
            )
        if self.sizes:
            require(
                len(self.sizes) == len(self.apps),
                "sizes must align 1:1 with apps",
            )
            require(bool(self.arrivals), "sizes require arrivals")

    @classmethod
    def from_spec(cls, spec: WorkloadSpec) -> "WorkloadRef":
        return cls(
            name=spec.name,
            apps=tuple(spec.apps),
            include_kmeans=spec.include_kmeans,
            threads_per_app=spec.threads_per_app,
        )

    @classmethod
    def from_traffic(cls, workload) -> "WorkloadRef":
        """Reference an open-system `repro.traffic.TrafficWorkload`.

        Jobs must share one thread count (the grid path generates uniform
        jobs); per-job sizes are kept only when any differ from 1.0.
        """
        jobs = workload.jobs
        threads = {j.n_threads for j in jobs}
        require(
            len(threads) == 1,
            "campaign traffic workloads need a uniform per-job thread count",
        )
        sizes = tuple(j.size for j in jobs)
        return cls(
            name=workload.name,
            apps=tuple(j.app for j in jobs),
            include_kmeans=False,
            threads_per_app=threads.pop(),
            arrivals=tuple(j.arrival_s for j in jobs),
            sizes=sizes if any(s != 1.0 for s in sizes) else (),
        )

    def to_spec(self):
        if self.arrivals:
            # Late import: repro.traffic depends on repro.workloads, which
            # sits below this module; importing it lazily keeps the
            # campaign package import-order agnostic.
            from repro.traffic.replay import TrafficWorkload
            from repro.traffic.trace import Job

            sizes = self.sizes or (1.0,) * len(self.apps)
            return TrafficWorkload(
                name=self.name,
                jobs=tuple(
                    Job(
                        i,
                        app,
                        arrival,
                        n_threads=self.threads_per_app,
                        size=size,
                    )
                    for i, (app, arrival, size) in enumerate(
                        zip(self.apps, self.arrivals, sizes)
                    )
                ),
            )
        return WorkloadSpec(
            name=self.name,
            apps=self.apps,
            include_kmeans=self.include_kmeans,
            threads_per_app=self.threads_per_app,
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "apps": list(self.apps),
            "include_kmeans": self.include_kmeans,
            "threads_per_app": self.threads_per_app,
        }
        # Only present when set, preserving historical closed-system keys.
        if self.arrivals:
            out["arrivals"] = list(self.arrivals)
        if self.sizes:
            out["sizes"] = list(self.sizes)
        return out


@dataclass(frozen=True)
class SimParams:
    """Simulator-side parameters of a task (everything `run_workload`
    accepts beyond workload/scheduler/seed).

    ``migration`` is the optional ``(swap_overhead_s, warmup_work,
    warmup_miss_scale)`` triple of a non-default `MigrationModel` (the
    ablation benches sweep it); ``None`` means the engine default.

    ``llc`` names the shared-LLC backend (`repro.sim.llc`, e.g.
    ``"occupancy"``); ``None`` is the default ``NullLLC`` and is omitted
    from the canonical dict, so pre-LLC cache keys stay addressable.

    ``topology`` resolves through `repro.topologies.TOPOLOGY_REGISTRY`
    (unknown names raise ``UnknownTopologyError``, a ``ValueError``);
    ``topology_params`` customises the named preset and is validated
    against its declarative schema — stored raw and serialised only when
    set, so default-machine cache keys stay addressable.
    """

    work_scale: float = 1.0
    topology: str = "heterogeneous"
    counter_noise: float = 0.06
    max_time_s: float = 36_000.0
    record_timeseries: bool = False
    migration: tuple[float, float, float] | None = None
    llc: str | None = None
    topology_params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        spec = TOPOLOGY_REGISTRY.get(self.topology)
        spec.validate_params(dict(self.topology_params))
        # Normalise parameter order so logically equal params hash equal.
        object.__setattr__(
            self, "topology_params", tuple(sorted(self.topology_params))
        )
        if self.llc is not None:
            from repro.sim.llc import LLC_MODELS

            require(
                self.llc in LLC_MODELS,
                f"unknown llc model {self.llc!r}; known: {sorted(LLC_MODELS)}",
            )

    def to_dict(self) -> dict:
        out = {
            "work_scale": self.work_scale,
            "topology": self.topology,
            "counter_noise": self.counter_noise,
            "max_time_s": self.max_time_s,
            "record_timeseries": self.record_timeseries,
            "migration": list(self.migration) if self.migration else None,
        }
        # Only present when set, preserving historical cache keys.
        if self.llc is not None:
            out["llc"] = self.llc
        if self.topology_params:
            out["topology_params"] = [[k, v] for k, v in self.topology_params]
        return out


@dataclass(frozen=True)
class TaskSpec:
    """One simulation: ``(workload, policy(+params), seed, sim params)``.

    ``invariants=True`` makes the worker attach a zero-file-I/O
    :class:`~repro.obs.invariants.InvariantSink` carrying the policy's
    contract (its registry spec's ``invariants`` tuple) for the whole
    run and stamp its digest into ``RunResult.info["invariants"]``.  The
    flag is part of the cache key (only when set, so pre-existing cached
    results keep their keys): an invariant-checked result carries extra
    information, and a cache hit on it can replay the recorded counts.
    """

    workload: WorkloadRef
    policy: str
    seed: int = DEFAULT_SEED
    policy_params: tuple[tuple[str, object], ...] = ()
    sim: SimParams = field(default_factory=SimParams)
    invariants: bool = False
    #: open-loop task: the worker stamps p50/p95/p99 job-slowdown metrics
    #: into ``RunResult.info["traffic"]`` before the result is cached
    traffic: bool = False

    def __post_init__(self) -> None:
        # Resolves through the registry: unknown names raise
        # UnknownPolicyError (a ValueError), and parameters are checked
        # against the policy's schema — but stored raw, never coerced,
        # so cache keys hash the caller's exact values.
        spec = REGISTRY.get(self.policy)
        spec.validate_params(dict(self.policy_params))
        # Normalise parameter order so logically equal tasks hash equal.
        object.__setattr__(
            self, "policy_params", tuple(sorted(self.policy_params))
        )

    @classmethod
    def for_workload(
        cls,
        spec: WorkloadSpec,
        policy: str,
        seed: int = DEFAULT_SEED,
        policy_params: Mapping[str, object] | None = None,
        sim: SimParams | None = None,
        invariants: bool = False,
    ) -> "TaskSpec":
        """Deprecated: build a `repro.spec.ExperimentSpec` instead.

        Kept as a shim delegating to the composable spec layer; the
        produced task (and hence its cache key) is identical.
        """
        warnings.warn(
            "TaskSpec.for_workload() is deprecated; build "
            "repro.spec.ExperimentSpec.for_workload(...) instead "
            "(Campaign.gather accepts it directly)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.spec import ExperimentSpec

        return ExperimentSpec.for_workload(
            spec,
            policy,
            seed=seed,
            policy_params=policy_params,
            sim=sim,
            invariants=invariants,
        ).to_task()

    @classmethod
    def for_traffic(
        cls,
        workload,
        policy: str,
        seed: int = DEFAULT_SEED,
        policy_params: Mapping[str, object] | None = None,
        sim: SimParams | None = None,
        invariants: bool = False,
    ) -> "TaskSpec":
        """Deprecated: build `repro.spec.ExperimentSpec.for_traffic` instead.

        Kept as a shim delegating to the composable spec layer; the
        produced task (and hence its cache key) is identical.
        """
        warnings.warn(
            "TaskSpec.for_traffic() is deprecated; build "
            "repro.spec.ExperimentSpec.for_traffic(...) instead "
            "(Campaign.gather accepts it directly)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.spec import ExperimentSpec

        return ExperimentSpec.for_traffic(
            workload,
            policy,
            seed=seed,
            policy_params=policy_params,
            sim=sim,
            invariants=invariants,
        ).to_task()

    @property
    def params(self) -> dict[str, object]:
        return dict(self.policy_params)

    def to_dict(self) -> dict:
        """Canonical plain-dict form — the input of the cache key."""
        out = {
            "workload": self.workload.to_dict(),
            "policy": self.policy,
            "policy_params": [[k, v] for k, v in self.policy_params],
            "seed": self.seed,
            "sim": self.sim.to_dict(),
        }
        # Only present when set, so plain tasks keep their historical
        # cache keys; invariant-checked results are distinct entries.
        if self.invariants:
            out["invariants"] = True
        if self.traffic:
            out["traffic"] = True
        return out

    def label(self) -> str:
        """Short human-readable id for telemetry lines."""
        extra = ""
        if self.policy_params:
            extra = "{" + ",".join(f"{k}={v}" for k, v in self.policy_params) + "}"
        return f"{self.workload.name}/{self.policy}{extra}@s{self.seed}"


def build_scheduler(policy: str, params: Mapping[str, object] | None = None) -> Scheduler:
    """Deprecated: use ``repro.policies.REGISTRY.build(name, params)``.

    Kept as a shim so pre-registry call sites keep working; unknown
    names still raise :class:`~repro.policies.UnknownPolicyError`
    (a ``ValueError``).
    """
    warnings.warn(
        "build_scheduler() is deprecated; resolve policy names through "
        "repro.policies.REGISTRY.build(...)",
        DeprecationWarning,
        stacklevel=2,
    )
    return REGISTRY.build(policy, params)


def build_topology(name: str) -> Topology:
    """Deprecated: use ``repro.topologies.TOPOLOGY_REGISTRY.build(name)``.

    Kept as a shim so pre-registry call sites keep working; unknown names
    still raise a ``ValueError`` (``UnknownTopologyError``).
    """
    warnings.warn(
        "build_topology() is deprecated; resolve topology names through "
        "repro.topologies.TOPOLOGY_REGISTRY.build(...)",
        DeprecationWarning,
        stacklevel=2,
    )
    return TOPOLOGY_REGISTRY.build(name)


def task_engine(task: TaskSpec, bus=None):
    """The engine that runs ``task``: the one builder for scalar tasks and
    batch lanes alike, so both get every part of the task's machine."""
    # Imported here rather than at module top: experiments.runner is also
    # imported *by* the experiment modules that import this package, and a
    # late import keeps the package import-order agnostic.
    from repro.experiments.runner import build_engine

    sim = task.sim
    return build_engine(
        task.workload.to_spec(),
        REGISTRY.build(task.policy, task.params),
        seed=task.seed,
        work_scale=sim.work_scale,
        topology=TOPOLOGY_REGISTRY.build(sim.topology, dict(sim.topology_params)),
        migration=MigrationModel(*sim.migration) if sim.migration else None,
        record_timeseries=sim.record_timeseries,
        counter_noise=sim.counter_noise,
        max_time_s=sim.max_time_s,
        bus=bus,
        llc=sim.llc,
    )


def finish_task(task: TaskSpec, result: RunResult) -> RunResult:
    """Epilogue of every executed task, scalar or batched: open-loop
    tasks get their traffic summary stamped into ``info``."""
    if task.traffic:
        from repro.traffic.tracker import summarize_result

        result.info["traffic"] = summarize_result(  # type: ignore[index]
            result,
            work_scale=task.sim.work_scale,
            topology=task.sim.topology,
            seed=task.seed,
            topology_params=task.sim.topology_params,
        ).to_dict()
    return result


def execute_task(task: TaskSpec, trace_dir: str | None = None) -> RunResult:
    """Run one task to completion (the worker-process entry point).

    Module-level (picklable) and dependent only on the spec's value, so
    the same task executes identically in-process and in a pool worker.
    With ``task.invariants`` the run carries a zero-file-I/O
    :class:`~repro.obs.invariants.InvariantSink` with the policy's
    contract; its digest lands in ``RunResult.info["invariants"]``.
    ``trace_dir`` (a side effect, never part of the cache key — bind it
    with :func:`functools.partial`) additionally writes the run's JSONL
    event trace to ``<trace_dir>/<label>.jsonl``.
    """
    attachment = None
    if task.invariants or trace_dir is not None:
        from repro.obs.attach import attach

        trace_path = None
        if trace_dir is not None:
            safe = task.label().replace("/", "_").replace("@", "_")
            trace_path = str(Path(trace_dir) / f"{safe}.jsonl")
        swap_size = task.params.get("swap_size")
        attachment = attach(
            trace=trace_path,
            invariants=task.policy if task.invariants else None,
            swap_size=swap_size if isinstance(swap_size, int) else None,
        )

    result = task_engine(
        task, bus=attachment.bus if attachment is not None else None
    ).run()
    if attachment is not None:
        attachment.close()
        attachment.finalize(result)
    return finish_task(task, result)
