"""Single-run harness: ``(workload, policy, config, seed) -> RunResult``.

Everything the figure/table modules need funnels through
:func:`run_workload`, whose :func:`build_engine` is the one place
simulator wiring (topology defaults, migration model, noise, LLC)
lives.  Policies are passed as zero-argument *factories* because
scheduler objects are stateful.

This is the low-level, eager entry point; batch consumers (the figure
modules, the benches) describe runs declaratively as
`repro.spec.ExperimentSpec`s instead and gather them through a
`repro.campaign.Campaign`, which adds deduplication, disk caching,
parallel execution and retries on top of exactly this wiring
(`repro.campaign.spec.task_engine` builds every task's engine, scalar
or batched, with :func:`build_engine`).

A run's threads are a pure function of ``(workload, seed, work_scale)``
and its machine of its `repro.spec.TopologyRef`, so :func:`build_engine`
builds each once per process and hands the very same immutable objects
to every later run that asks for them (docs/performance.md §12).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Mapping, TypeVar

from repro.obs.events import EventBus
from repro.policies import REGISTRY, PolicyFactory
from repro.schedulers.base import Scheduler
from repro.schedulers.static import StaticScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.memory import MemoryModelConfig
from repro.sim.migration import MigrationModel
from repro.sim.process import ProcessGroup
from repro.sim.results import RunResult
from repro.sim.topology import Topology
from repro.spec import TopologyRef
from repro.traffic.replay import TrafficWorkload
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import WorkloadSpec

__all__ = [
    "PolicyFactory",
    "build_engine",
    "machine",
    "clear_build_memo",
    "run_workload",
    "run_scenario",
    "run_policies",
    "run_standalone",
]

#: Most threads the workload memo holds, summed over its entries (about
#: 1.5 KiB a thread).  A bound on entries would not do: one 512-thread
#: build weighs as much as thirteen 40-thread ones.
BUILD_MEMO_THREADS = 4096

#: Most machines the topology memo holds.
TOPOLOGY_MEMO_SIZE = 16

_T = TypeVar("_T")


class _Memo(Generic[_T]):
    """Values by exact key, least recently used first out, bounded by the
    total ``weight`` of the values held.  A value heavier than the bound
    is returned but not kept; a build that raises keeps nothing.  Not
    thread-safe: campaign workers are processes, each with its own."""

    def __init__(self, bound: int, weight: Callable[[_T], int]) -> None:
        self.bound = bound
        self.weight = weight
        self.held = 0
        self._entries: OrderedDict[str, tuple[_T, int]] = OrderedDict()

    def get(self, key: str, build: Callable[[], _T]) -> _T:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0]
        value = build()
        weight = self.weight(value)
        if weight <= self.bound:
            while self.held + weight > self.bound:
                _, (_, old) = self._entries.popitem(last=False)
                self.held -= old
            self._entries[key] = (value, weight)
            self.held += weight
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.held = 0


_GROUPS: _Memo[tuple[ProcessGroup, ...]] = _Memo(
    BUILD_MEMO_THREADS, lambda groups: sum(g.n_threads for g in groups)
)
_MACHINES: _Memo[Topology] = _Memo(TOPOLOGY_MEMO_SIZE, lambda topology: 1)
_PAPER_MACHINE = TopologyRef()


def _exact_key(*values: object) -> str:
    # The repr of the (frozen dataclass) values, not the values: 5 == 5.0
    # and 0.0 == -0.0, yet a job arriving at 5 reaches events and results
    # as "5" where 5.0 gives "5.0", so equal-but-different values must
    # not share a build.
    return repr(values)


def machine(ref: TopologyRef) -> Topology:
    """The machine ``ref`` names, built once per process.

    Every caller gets the same `Topology`, which is immutable (read-only
    arrays, tuples); ``TOPOLOGY_REGISTRY.build`` still builds a fresh one.
    """
    return _MACHINES.get(_exact_key(ref), ref.build)


def clear_build_memo() -> None:
    """Forget every memoised workload build and machine, so the next
    :func:`build_engine` builds afresh."""
    _GROUPS.clear()
    _MACHINES.clear()


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

    The process groups come from a per-process memo keyed by the exact
    value of ``(spec, seed, work_scale)``: an equal request gets the very
    groups the first one built (frozen, so sharing them is safe), and the
    memo holds at most :data:`BUILD_MEMO_THREADS` threads, least recently
    used first out.  Without ``topology`` the engine runs on the paper's
    machine from :func:`machine`.  Nothing of the memo reaches the run:
    a hit and a fresh build give the same bytes.
    """
    bus = getattr(bus, "bus", bus)  # accept an Attachment handle
    groups = _GROUPS.get(
        _exact_key(spec, seed, work_scale),
        lambda: tuple(spec.build(seed=seed, work_scale=work_scale)),
    )
    return SimulationEngine(
        topology=topology or machine(_PAPER_MACHINE),
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
