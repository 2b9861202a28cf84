"""Single-run harness: ``(workload, policy, config, seed) -> RunResult``.

Everything the figure/table modules need funnels through
:func:`run_workload`, whose :func:`build_engine` is the one place
simulator wiring (topology defaults, migration model, noise, LLC)
lives.  Policies are passed as zero-argument *factories* because
scheduler objects are stateful.

This is the low-level, eager entry point; batch consumers (the figure
modules, the benches) describe runs declaratively as
`repro.campaign.TaskSpec`s instead and gather them through a
`repro.campaign.Campaign`, which adds deduplication, disk caching,
parallel execution and retries on top of exactly this wiring
(`repro.campaign.spec.task_engine` builds every task's engine, scalar
or batched, with :func:`build_engine`).
"""

from __future__ import annotations

import warnings
from typing import Mapping

from repro.obs.events import EventBus
from repro.policies import REGISTRY, PolicyFactory
from repro.schedulers.base import Scheduler
from repro.schedulers.static import StaticScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.memory import MemoryModelConfig
from repro.sim.migration import MigrationModel
from repro.sim.results import RunResult
from repro.sim.topology import Topology, xeon_e5_heterogeneous
from repro.traffic.replay import TrafficWorkload
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import WorkloadSpec

__all__ = [
    "PolicyFactory",
    "STANDARD_POLICIES",
    "build_engine",
    "run_workload",
    "run_scenario",
    "run_policies",
    "run_standalone",
]


def __getattr__(name: str):
    # STANDARD_POLICIES is deprecated: the policy registry is the single
    # source of truth, and the "standard" tag marks the paper's five.
    if name == "STANDARD_POLICIES":
        warnings.warn(
            "STANDARD_POLICIES is deprecated; use "
            "repro.policies.REGISTRY.standard_factories() (or iterate "
            "REGISTRY.tagged('standard')) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return REGISTRY.standard_factories()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_engine(
    spec: WorkloadSpec | TrafficWorkload,
    scheduler: Scheduler,
    seed: int = DEFAULT_SEED,
    work_scale: float = 1.0,
    topology: Topology | None = None,
    migration: MigrationModel | None = None,
    memory_config: MemoryModelConfig | None = None,
    record_timeseries: bool = False,
    counter_noise: float = 0.06,
    max_time_s: float = 36_000.0,
    bus: EventBus | None = None,
    llc: str | None = None,
) -> SimulationEngine:
    """The engine that simulates one workload under one scheduler.

    ``bus`` is an optional observability event bus (`repro.obs`) — or the
    :class:`~repro.obs.attach.Attachment` handle returned by
    ``repro.obs.attach(...)``, which is unwrapped to its bus, so callers
    never touch sink plumbing here.

    ``llc`` selects the shared-LLC backend (`repro.sim.llc`) by name;
    ``None`` keeps the default ``NullLLC`` (no cache modelling, traces
    byte-identical to pre-LLC builds).
    """
    bus = getattr(bus, "bus", bus)  # accept an Attachment handle
    topo = topology or xeon_e5_heterogeneous()
    groups = spec.build(seed=seed, work_scale=work_scale)
    return SimulationEngine(
        topology=topo,
        groups=groups,
        scheduler=scheduler,
        migration=migration,
        memory_config=memory_config,
        seed=seed,
        counter_noise=counter_noise,
        max_time_s=max_time_s,
        record_timeseries=record_timeseries,
        workload_name=spec.name,
        llc=llc,
        bus=bus,
    )


def run_workload(
    spec: WorkloadSpec | TrafficWorkload, scheduler: Scheduler, **options: object
) -> RunResult:
    """Simulate one workload under one scheduler and return the result
    (``options`` are :func:`build_engine`'s)."""
    return build_engine(spec, scheduler, **options).run()


#: Stable public name of the single-run entry point (the name the top
#: level package re-exports; "scenario" = workload × policy × seed).
run_scenario = run_workload


def run_policies(
    spec: WorkloadSpec | TrafficWorkload,
    policies: Mapping[str, PolicyFactory] | None = None,
    seed: int = DEFAULT_SEED,
    work_scale: float = 1.0,
    **kwargs: object,
) -> dict[str, RunResult]:
    """Run one workload under several policies (same build, same seed)."""
    policies = dict(policies or REGISTRY.standard_factories())
    return {
        name: run_workload(
            spec, factory(), seed=seed, work_scale=work_scale, **kwargs
        )
        for name, factory in policies.items()
    }


def run_standalone(
    spec: WorkloadSpec,
    benchmark: str,
    seed: int = DEFAULT_SEED,
    work_scale: float = 1.0,
    topology: Topology | None = None,
    **kwargs: object,
) -> RunResult:
    """Run one of a workload's benchmarks *alone* on the machine.

    Standalone runs (Figure 1's denominator) place threads one per
    physical core, fastest cores first, and never migrate.
    """
    solo = WorkloadSpec(
        name=f"{spec.name}:{benchmark}:standalone",
        apps=(benchmark,),
        include_kmeans=False,
        threads_per_app=spec.threads_per_app,
    )
    return run_workload(
        solo,
        StaticScheduler(fastest_first=True),
        seed=seed,
        work_scale=work_scale,
        topology=topology,
        **kwargs,
    )
