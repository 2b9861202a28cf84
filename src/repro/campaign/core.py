"""The campaign facade: cache-aware, parallel, order-preserving `gather`.

A :class:`Campaign` ties the subsystem together: the planner's dedup, the
content-addressed :class:`~repro.campaign.store.ResultStore`, the
fault-tolerant executor and the telemetry stream.  Experiment modules
build task lists and call :meth:`Campaign.gather`; everything else —
dedup, cache lookup, parallel execution, persistence, resumability — is
this class's concern.

Resumability falls out of the design: a rerun of a partially completed
campaign plans the same keys, finds the finished ones in the store, and
executes only the remainder.

``Campaign.inline()`` is the zero-infrastructure instance (serial, no
disk cache, silent) that experiment runners default to, so every figure
module keeps working stand-alone; an in-memory memo still dedups repeat
tasks *within* the process (e.g. the CFS baselines the ablation benches
share).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Sequence

from repro.campaign.batching import (
    BatchResult,
    BatchTask,
    execute_unit,
    plan_batches,
)
from repro.campaign.cachekey import cache_key
from repro.campaign.executor import ExecutorConfig, TaskFailure, run_tasks
from repro.campaign.spec import TaskSpec, execute_task
from repro.campaign.store import ResultStore
from repro.campaign.telemetry import Telemetry
from repro.obs.attach import run_info_telemetry
from repro.sim.results import RunResult

__all__ = ["Campaign", "CampaignError"]


class CampaignError(RuntimeError):
    """Raised by strict gathers when tasks failed after all retries."""

    def __init__(self, failures: Sequence[TaskFailure]) -> None:
        self.failures = tuple(failures)
        detail = "; ".join(
            f"{f.label} [{f.kind} after {f.attempts} attempts]: {f.error}"
            for f in self.failures[:5]
        )
        more = f" (+{len(self.failures) - 5} more)" if len(self.failures) > 5 else ""
        super().__init__(f"{len(self.failures)} task(s) failed: {detail}{more}")


class Campaign:
    """Executes task specs through cache + pool; results come back in order."""

    def __init__(
        self,
        store: ResultStore | None = None,
        executor: ExecutorConfig | None = None,
        telemetry: Telemetry | None = None,
        invariants: bool = False,
        trace_dir: str | Path | None = None,
        batch: bool = False,
    ) -> None:
        self.store = store
        self.executor = executor or ExecutorConfig()
        self.telemetry = telemetry or Telemetry(stream=None)
        #: check the policy contract inside every worker
        #: (``repro.obs.attach(campaign, invariants=True)`` sets this too)
        self.invariants = invariants
        #: write each *executed* task's JSONL event trace here (a side
        #: effect: never part of the cache key, so cache hits skip it)
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        #: group compatible cache misses into multi-run batch units for the
        #: vectorized engine (`repro.sim.batch`); results, cache keys and
        #: cached bytes are identical either way.  Ignored while a
        #: ``trace_dir`` is set — tracing needs the scalar per-run path.
        self.batch = batch
        #: in-process memo; also what makes cache hits repeat-stable when
        #: no disk store is configured
        self._memo: dict[str, RunResult] = {}

    # ---------------------------------------------------------- factories

    @classmethod
    def inline(cls) -> "Campaign":
        """Serial, memory-only, silent — the default for direct calls."""
        return cls()

    @classmethod
    def at(
        cls,
        cache_dir: str | Path,
        max_workers: int = 2,
        timeout_s: float | None = None,
        retries: int = 2,
        telemetry: Telemetry | None = None,
        invariants: bool = False,
        trace_dir: str | Path | None = None,
        batch: bool = False,
    ) -> "Campaign":
        """A production campaign: disk cache under ``cache_dir`` + pool."""
        return cls(
            store=ResultStore(cache_dir),
            executor=ExecutorConfig(
                max_workers=max_workers, timeout_s=timeout_s, retries=retries
            ),
            telemetry=telemetry,
            invariants=invariants,
            trace_dir=trace_dir,
            batch=batch,
        )

    # ------------------------------------------------------------- gather

    def gather(
        self, tasks: Sequence[TaskSpec], strict: bool = True
    ) -> list[RunResult | TaskFailure]:
        """Resolve every task, in input order (duplicates share one run).

        Cache hits (memo, then disk) never re-execute; misses run through
        the executor and are persisted.  With ``strict`` (the default for
        figure assembly) any terminal failure raises :class:`CampaignError`;
        with ``strict=False`` failures come back as :class:`TaskFailure`
        entries so a campaign sweep can report them and move on.

        With ``self.invariants`` every task is upgraded to its
        invariant-checked form before key computation, so checked results
        are distinct cache entries — and a cache hit on one *replays* the
        recorded violation digest into telemetry instead of reporting
        zero for skipped work.

        Accepts `repro.spec.ExperimentSpec` entries interchangeably with
        legacy `TaskSpec`s — specs normalise to their `TaskSpec` image at
        this boundary (identical cache keys, see `ExperimentSpec.to_task`),
        so the executor path stays picklable and unchanged.
        """
        tasks = [
            t if isinstance(t, TaskSpec) else t.to_task() for t in tasks
        ]
        if self.invariants:
            tasks = [
                t if t.invariants else replace(t, invariants=True)
                for t in tasks
            ]
        keys = [cache_key(t) for t in tasks]
        unique: dict[str, TaskSpec] = {}
        for key, task in zip(keys, tasks):
            unique.setdefault(key, task)
        self.telemetry.tasks_planned(len(tasks), len(unique))

        resolved: dict[str, RunResult | TaskFailure] = {}
        to_run: list[tuple[str, TaskSpec]] = []
        for key, task in unique.items():
            hit = self._lookup(key)
            if hit is not None:
                resolved[key] = hit
                self.telemetry.cache_hit(
                    key,
                    task.label(),
                    invariants=run_info_telemetry(hit).get("invariants"),
                )
            else:
                to_run.append((key, task))

        if to_run:
            if self.batch and self.trace_dir is None:
                units: list[tuple[str, TaskSpec | BatchTask]] = plan_batches(to_run)
                fn = execute_unit
                folded = len(to_run) - len(units)
                if folded:
                    # Progress accounting is per executor *unit*; fold the
                    # batched-away members out of the queued gauge so the
                    # live line still reaches zero.
                    self.telemetry.queued -= folded
                    self.telemetry.emit(
                        "batched", tasks=len(to_run), units=len(units)
                    )
            elif self.trace_dir is not None:
                units = list(to_run)
                fn = partial(execute_task, trace_dir=self.trace_dir)
            else:
                units = list(to_run)
                fn = execute_task
            executed = run_tasks(
                units, fn=fn, config=self.executor, telemetry=self.telemetry
            )
            by_key = dict(units)
            for unit_key, result in executed.items():
                if isinstance(result, BatchResult) and result.fallback:
                    self.telemetry.batch_fallback(
                        by_key[unit_key].label(), result.fallback
                    )
                for key, member in self._unpack(unit_key, by_key, result):
                    resolved[key] = member
                    if isinstance(member, RunResult):
                        self._memo[key] = member
                        if self.store is not None:
                            self.store.put(key, member, unique[key])

        if strict:
            failures = [r for r in resolved.values() if isinstance(r, TaskFailure)]
            if failures:
                raise CampaignError(failures)
        return [resolved[key] for key in keys]

    def run(self, task: TaskSpec) -> RunResult:
        """Resolve a single task (strict)."""
        return self.gather([task])[0]

    # ------------------------------------------------------------ private

    @staticmethod
    def _unpack(
        unit_key: str,
        units: dict[str, TaskSpec | BatchTask],
        result: RunResult | BatchResult | TaskFailure,
    ) -> list[tuple[str, RunResult | TaskFailure]]:
        """Flatten one executor unit's outcome to per-member entries."""
        if isinstance(result, BatchResult):
            return list(result.results.items())
        if not isinstance(result, TaskFailure):
            return [(unit_key, result)]
        # A failed unit: if it was a batch, every member inherits the
        # failure (with its own key/label) so callers see per-task errors.
        unit = units[unit_key]
        if isinstance(unit, BatchTask):
            return [
                (key, replace(result, key=key, label=task.label()))
                for key, task in unit.items
            ]
        return [(unit_key, result)]

    def _lookup(self, key: str) -> RunResult | None:
        hit = self._memo.get(key)
        if hit is None and self.store is not None:
            hit = self.store.get(key)
            if hit is not None:
                self._memo[key] = hit
        return hit
