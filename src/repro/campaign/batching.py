"""Campaign-side batching: group eligible tasks, run them in one engine.

The batched engine (`repro.sim.batch`) amortises per-quantum Python
overhead across independent runs, but it only pays off when the campaign
layer feeds it *groups* of compatible tasks.  This module is that glue:

* :func:`batchable` — the eligibility rule.  A task can join a batch when
  nothing about it needs the scalar per-run loop: no invariant contract
  and no per-task trace sink (both attach per-run observers whose
  per-quantum cost would defeat the batching anyway), no per-quantum
  timeseries.  LLC models batch: each lane resolves its own cache.
* :func:`plan_batches` — groups eligible ``(key, spec)`` pairs by batch
  signature (policy + parameters, topology, migration model, scenario
  shape) and chunks each group into :class:`BatchTask` units of at most
  ``max_batch`` members.  Ineligible tasks and singleton groups pass
  through as plain scalar units, preserving first-seen order.
* :func:`execute_batch` / :func:`execute_unit` — the worker entry points.
  A batch builds one engine per member spec with
  :func:`~repro.campaign.spec.task_engine` (the builder
  :func:`~repro.campaign.spec.execute_task` uses) and runs them through a
  :class:`~repro.sim.batch.BatchEngine`; on *any* batch-level error it
  falls back to scalar per-member execution, so a batch can only fail if
  the individual tasks fail, and reports the error
  (:attr:`BatchResult.fallback`) for campaign telemetry.

Batching changes execution strategy only: per-run results, cache keys and
cached bytes are identical either way (gated in CI by running a mixed
campaign both ways and comparing the stores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.campaign.spec import execute_task, finish_task, task_engine
from repro.sim.results import RunResult

if TYPE_CHECKING:
    from repro.spec import ExperimentSpec

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchTask",
    "BatchResult",
    "batchable",
    "batch_signature",
    "plan_batches",
    "execute_batch",
    "execute_unit",
]

#: Largest number of runs stepped by one worker's BatchEngine.  Past this
#: size the flat kernels stop gaining (memory traffic dominates) while
#: scheduling granularity and retry blast radius get worse.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class BatchTask:
    """One executor unit bundling several compatible specs.

    Duck-types the slice of ``ExperimentSpec`` the executor uses
    (``label()`` plus picklability), so it flows through
    :func:`~repro.campaign.executor.run_tasks` unchanged.
    """

    items: tuple[tuple[str, ExperimentSpec], ...]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.items)

    @property
    def tasks(self) -> tuple[ExperimentSpec, ...]:
        return tuple(t for _, t in self.items)

    def label(self) -> str:
        first = self.items[0][1]
        seeds = [t.seed for _, t in self.items]
        return (
            f"batch[{len(self.items)}]:{first.workload.name}/{first.policy.name}"
            f"@s{min(seeds)}..s{max(seeds)}"
        )


@dataclass(frozen=True)
class BatchResult:
    """Per-member results of one executed batch, keyed by cache key.

    ``n_quanta`` aggregates the members so executor telemetry (which reads
    the attribute generically) reports real work for batch units.
    """

    results: dict[str, RunResult]
    n_quanta: int
    #: the batch engine's error when members ran scalar instead, else None
    fallback: str | None = None


def batchable(spec: ExperimentSpec) -> bool:
    """Whether ``spec`` may run inside a batch (see module docstring)."""
    return not spec.invariants and not spec.record_timeseries


def batch_signature(spec: ExperimentSpec) -> tuple:
    """Group key: tasks sharing it can run in one ``BatchEngine``.

    Policy family (name + parameters), machine model (topology name and
    migration triple — both enter the shared flat kernels) and scenario
    shape (per-job thread count, job count, open/closed).  Seeds, work
    scales, workload names and arrival processes may differ freely within
    a group; the engine supports ragged thread counts, but grouping by
    shape keeps lane lengths similar so stragglers don't serialise the
    batch.
    """
    wl = spec.workload
    return (
        spec.policy.name,
        spec.policy.params,
        spec.topology.name,
        spec.topology.params,
        spec.migration,
        spec.counter_noise,
        wl.threads_per_app,
        len(wl.apps),
        bool(wl.arrivals),
    )


def plan_batches(
    items: Sequence[tuple[str, ExperimentSpec]],
    max_batch: int = DEFAULT_BATCH_SIZE,
) -> list[tuple[str, ExperimentSpec | BatchTask]]:
    """Group ``(key, spec)`` pairs into executor units.

    Eligible specs with a shared :func:`batch_signature` merge into
    :class:`BatchTask` units of at most ``max_batch`` members; everything
    else (ineligible specs, singleton groups) stays a scalar unit.  Units
    keep the first-seen order of their first member.
    """
    groups: dict[tuple, list[tuple[str, ExperimentSpec]]] = {}
    order: list[tuple[str, object]] = []  # (kind, payload) in input order
    for key, task in items:
        if not batchable(task):
            order.append(("scalar", (key, task)))
            continue
        sig = batch_signature(task)
        if sig not in groups:
            groups[sig] = []
            order.append(("group", sig))
        groups[sig].append((key, task))

    units: list[tuple[str, ExperimentSpec | BatchTask]] = []
    for kind, payload in order:
        if kind == "scalar":
            units.append(payload)  # type: ignore[arg-type]
            continue
        members = groups[payload]  # type: ignore[index]
        if len(members) == 1:
            units.append(members[0])
            continue
        for i in range(0, len(members), max_batch):
            chunk = tuple(members[i : i + max_batch])
            if len(chunk) == 1:
                units.append(chunk[0])
            else:
                # The unit key only needs uniqueness and determinism; the
                # member cache keys inside are what the campaign persists.
                units.append((f"batch:{chunk[0][0]}", BatchTask(items=chunk)))
    return units


def execute_batch(batch: BatchTask) -> BatchResult:
    """Run one batch in-process (the worker entry point for batch units).

    Builds a lane per member and steps them through one
    :class:`~repro.sim.batch.BatchEngine`.  Any failure at the batch level
    — incompatible lanes, an engine bug — falls back to scalar per-member
    execution, so batching is never the reason a task fails; the error is
    kept in :attr:`BatchResult.fallback`, which the campaign reports as a
    ``batch_fallback`` telemetry event.
    """
    from repro.sim.batch import BatchEngine

    fallback = None
    try:
        engines = [task_engine(task) for task in batch.tasks]
        results = {
            key: finish_task(task, result)
            for (key, task), result in zip(batch.items, BatchEngine(engines).run())
        }
    except Exception as exc:
        results = {key: execute_task(task) for key, task in batch.items}
        fallback = f"{type(exc).__name__}: {exc}"
    return BatchResult(
        results=results,
        n_quanta=sum(r.n_quanta for r in results.values()),
        fallback=fallback,
    )


def execute_unit(
    unit: ExperimentSpec | BatchTask, trace_dir: str | None = None
) -> RunResult | BatchResult:
    """Dispatch one executor unit: scalar spec or batch."""
    if isinstance(unit, BatchTask):
        return execute_batch(unit)
    return execute_task(unit, trace_dir=trace_dir)
