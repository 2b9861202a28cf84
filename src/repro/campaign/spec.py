"""What a worker process needs to run one `repro.spec.ExperimentSpec`.

A spec holds **no live objects** (schedulers are stateful, topologies
carry NumPy arrays); workers rebuild them from its value via
:func:`execute_task`, the *only* execution path of the campaign
subsystem.  :class:`WorkloadRef` is the spec's workload by value, and
:class:`SimParams` the optional ``sim=`` bundle of
`ExperimentSpec.for_workload` / `ExperimentSpec.for_traffic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.policies import REGISTRY
from repro.sim.migration import MigrationModel
from repro.sim.results import RunResult
from repro.util.validation import is_finite_number, require
from repro.workloads.rodinia import APP_REGISTRY
from repro.workloads.suite import WorkloadSpec

if TYPE_CHECKING:
    from repro.spec import ExperimentSpec

__all__ = [
    "WorkloadRef",
    "SimParams",
    "task_engine",
    "finish_task",
    "execute_task",
]


@dataclass(frozen=True)
class WorkloadRef:
    """A workload by value: the four `WorkloadSpec` fields, nothing more.

    Suite workloads (``wl1`` .. ``wl16``) and ad-hoc specs (standalone
    runs, test workloads) serialise identically — the reference carries
    the full recipe, so a worker process can rebuild the spec without any
    registry lookup.  It is checked at construction with the rules the
    worker's `WorkloadSpec` / `repro.traffic.Job` would apply.

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
        require(
            isinstance(self.name, str),
            f"workload 'name' must be a string, got {self.name!r}",
        )
        require(
            isinstance(self.apps, tuple) and len(self.apps) >= 1,
            f"workload 'apps' must list >= 1 application, got {self.apps!r}",
        )
        for a in self.apps:
            require(
                isinstance(a, str) and a in APP_REGISTRY,
                f"unknown application {a!r} in workload 'apps'",
            )
        require(
            isinstance(self.include_kmeans, bool),
            f"workload 'include_kmeans' must be a bool, got {self.include_kmeans!r}",
        )
        require(
            isinstance(self.threads_per_app, int)
            and not isinstance(self.threads_per_app, bool)
            and self.threads_per_app >= 1,
            f"workload 'threads_per_app' must be an int >= 1, "
            f"got {self.threads_per_app!r}",
        )
        require(
            all(is_finite_number(t) and t >= 0 for t in self.arrivals),
            f"workload 'arrivals' must be finite numbers >= 0, got {self.arrivals!r}",
        )
        require(
            all(is_finite_number(s) and s > 0 for s in self.sizes),
            f"workload 'sizes' must be finite numbers > 0, got {self.sizes!r}",
        )
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
    """The simulator fields of a spec, bundled for
    `ExperimentSpec.for_workload` / `ExperimentSpec.for_traffic`.

    ``migration`` is the optional ``(swap_overhead_s, warmup_work,
    warmup_miss_scale)`` triple of a non-default `MigrationModel`;
    ``None`` means the engine default.  ``llc`` names the shared-LLC
    backend (`repro.sim.llc`); ``None`` is the default ``NullLLC``.
    ``topology`` and ``topology_params`` name a
    `repro.topologies.TOPOLOGY_REGISTRY` preset and customise it.  The
    spec built from the bundle validates every field.
    """

    work_scale: float = 1.0
    topology: str = "heterogeneous"
    counter_noise: float = 0.06
    max_time_s: float = 36_000.0
    record_timeseries: bool = False
    migration: tuple[float, float, float] | None = None
    llc: str | None = None
    topology_params: tuple[tuple[str, object], ...] = ()


def task_engine(spec: ExperimentSpec, bus=None):
    """The engine that runs ``spec``: the one builder for scalar tasks and
    batch lanes alike, so both get every part of the spec's machine.

    The machine comes from `repro.experiments.runner.machine` and the
    threads from `build_engine`'s memo, both keyed by value, so a process
    builds each workload, seed and scale, and each topology, once however
    many policies, lanes or repeats run them.
    """
    # Imported here rather than at module top: experiments.runner is also
    # imported *by* the experiment modules that import this package, and a
    # late import keeps the package import-order agnostic.
    from repro.experiments.runner import build_engine, machine

    return build_engine(
        spec.workload.to_spec(),
        REGISTRY.build(spec.policy.name, dict(spec.policy.params)),
        seed=spec.seed,
        work_scale=spec.work_scale,
        topology=machine(spec.topology),
        migration=MigrationModel(*spec.migration) if spec.migration else None,
        record_timeseries=spec.record_timeseries,
        counter_noise=spec.counter_noise,
        max_time_s=spec.max_time_s,
        bus=bus,
        llc=spec.llc,
    )


def finish_task(spec: ExperimentSpec, result: RunResult) -> RunResult:
    """Epilogue of every executed spec, scalar or batched: open-loop
    specs get their traffic summary stamped into ``info``."""
    if spec.traffic:
        from repro.traffic.tracker import summarize_result

        result.info["traffic"] = summarize_result(  # type: ignore[index]
            result,
            work_scale=spec.work_scale,
            topology=spec.topology.name,
            seed=spec.seed,
            topology_params=spec.topology.params,
        ).to_dict()
    return result


def execute_task(spec: ExperimentSpec, trace_dir: str | None = None) -> RunResult:
    """Run one spec to completion (the worker-process entry point).

    Module-level (picklable) and dependent only on the spec's value, so
    the same spec executes identically in-process and in a pool worker.
    With ``spec.invariants`` the run carries a zero-file-I/O
    :class:`~repro.obs.invariants.InvariantSink` with the policy's
    contract; its digest lands in ``RunResult.info["invariants"]``.
    ``trace_dir`` (a side effect, never part of the cache key — bind it
    with :func:`functools.partial`) additionally writes the run's JSONL
    event trace to ``<trace_dir>/<label>.jsonl``.
    """
    attachment = None
    if spec.invariants or trace_dir is not None:
        from repro.obs.attach import attach

        trace_path = None
        if trace_dir is not None:
            safe = spec.label().replace("/", "_").replace("@", "_")
            trace_path = str(Path(trace_dir) / f"{safe}.jsonl")
        swap_size = dict(spec.policy.params).get("swap_size")
        attachment = attach(
            trace=trace_path,
            invariants=spec.policy.name if spec.invariants else None,
            swap_size=swap_size if isinstance(swap_size, int) else None,
        )

    result = task_engine(
        spec, bus=attachment.bus if attachment is not None else None
    ).run()
    if attachment is not None:
        attachment.close()
        attachment.finalize(result)
    return finish_task(spec, result)
