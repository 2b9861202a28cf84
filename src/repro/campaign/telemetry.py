"""Structured campaign telemetry: counters, progress lines, event log.

One :class:`Telemetry` instance observes a whole campaign.  Every state
change is (a) counted, (b) optionally appended as a JSON line to a
machine-readable events file, and (c) summarised as a single-line human
progress report on ``stream`` (stderr by default) — throttled so a
10 000-task campaign does not emit 10 000 lines unless every task matters
(``verbose=True`` prints one line per event).

Throughput is reported in **simulated quanta per wall second**, the unit
the executor actually spends its time on; the cache-hit counter is the
load-bearing number for resumability ("second run: 0 executed, N hits").
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import IO, Any

__all__ = ["Telemetry"]


class Telemetry:
    """Counts, logs and narrates campaign progress.

    Parameters
    ----------
    events_path:
        Where to append JSONL events (parents created); None disables.
    stream:
        Text stream for human progress lines; None silences them.
    verbose:
        Emit a progress line on *every* event rather than ~1/second.
    label:
        Prefix of progress lines (``[campaign] ...``).
    """

    def __init__(
        self,
        events_path: str | Path | None = None,
        stream: IO[str] | None = sys.stderr,
        verbose: bool = False,
        label: str = "campaign",
    ) -> None:
        self.stream = stream
        self.verbose = verbose
        self.label = label
        self.queued = 0
        self.running = 0
        self.done = 0
        self.failed = 0
        self.cache_hits = 0
        self.retries = 0
        self.sim_quanta = 0
        #: tasks that carried an invariant digest (executed or replayed)
        self.invariant_tasks = 0
        #: total invariant violations across those tasks
        self.invariant_violations = 0
        #: batches whose engine failed, so their members ran scalar
        self.batch_fallbacks = 0
        self._t0 = time.monotonic()
        self._last_line = 0.0
        self._events: IO[str] | None = None
        if events_path is not None:
            path = Path(events_path).expanduser()
            path.parent.mkdir(parents=True, exist_ok=True)
            self._events = path.open("a")

    # ------------------------------------------------------------- events

    def emit(self, event: str, **fields: Any) -> None:
        """Record one event (counters are the caller's responsibility)."""
        if self._events is not None:
            record = {"t": round(self.elapsed_s, 4), "event": event, **fields}
            self._events.write(json.dumps(record, sort_keys=True) + "\n")
            self._events.flush()

    def tasks_planned(self, n_requested: int, n_unique: int) -> None:
        self.queued += n_unique
        self.emit("planned", requested=n_requested, unique=n_unique)
        self._narrate(
            f"planned {n_unique} unique tasks "
            f"({n_requested - n_unique} duplicates shared)", force=True,
        )

    def cache_hit(
        self, key: str, label: str, invariants: dict[str, Any] | None = None
    ) -> None:
        """Record a cache hit.

        ``invariants`` replays the violation digest recorded when the
        cached result was originally executed (see
        :meth:`task_done`) — a resumed invariant-checked campaign keeps
        its counts instead of reporting zero for skipped tasks.
        """
        self.cache_hits += 1
        self.queued -= 1
        if invariants is not None:
            self._count_invariants(invariants)
            self.emit("cache_hit", key=key, task=label, invariants=invariants)
        else:
            self.emit("cache_hit", key=key, task=label)
        self._narrate(f"cache hit {label}")

    def task_started(self, key: str, label: str, attempt: int) -> None:
        self.queued -= 1
        self.running += 1
        self.emit("task_started", key=key, task=label, attempt=attempt)

    def task_retried(self, key: str, label: str, attempt: int, error: str) -> None:
        self.running -= 1
        self.queued += 1
        self.retries += 1
        self.emit("task_retried", key=key, task=label, attempt=attempt, error=error)
        self._narrate(f"retry #{attempt} {label}: {error}", force=True)

    def task_done(
        self,
        key: str,
        label: str,
        n_quanta: int,
        metrics: dict[str, Any] | None = None,
        invariants: dict[str, Any] | None = None,
    ) -> None:
        """Record a completed task.

        ``metrics`` is an optional `repro.obs.MetricsRegistry` snapshot
        taken from the run (``RunResult.info["metrics"]``, present when
        the run carried an event bus with metrics); ``invariants`` is the
        per-task violation digest (``RunResult.info["invariants"]``,
        present on invariant-checked tasks).  Both ride along on the
        JSONL event so stage timings and contract status survive into
        campaign logs.
        """
        self.running -= 1
        self.done += 1
        self.sim_quanta += n_quanta
        extra: dict[str, Any] = {}
        if metrics:
            extra["metrics"] = metrics
        if invariants is not None:
            self._count_invariants(invariants)
            extra["invariants"] = invariants
        self.emit("task_done", key=key, task=label, n_quanta=n_quanta, **extra)
        violated = invariants is not None and invariants.get("total", 0)
        if violated:
            self._narrate(
                f"done {label} — {invariants['total']} invariant "
                "violation(s)!", force=True,
            )
        else:
            self._narrate(f"done {label}")

    def _count_invariants(self, invariants: dict[str, Any]) -> None:
        self.invariant_tasks += 1
        total = invariants.get("total", 0)
        if isinstance(total, int):
            self.invariant_violations += total

    def task_failed(self, key: str, label: str, kind: str, error: str) -> None:
        self.running -= 1
        self.failed += 1
        self.emit("task_failed", key=key, task=label, kind=kind, error=error)
        self._narrate(f"FAILED ({kind}) {label}: {error}", force=True)

    def batch_fallback(self, label: str, error: str) -> None:
        """A batch unit's engine failed and its members ran scalar.

        The results are still right, but batching did not happen — and a
        broken batched engine would otherwise pass every identity check
        unseen."""
        self.batch_fallbacks += 1
        self.emit("batch_fallback", task=label, error=error)
        self._narrate(f"batch fell back to scalar runs {label}: {error}", force=True)

    def degraded(self, reason: str) -> None:
        self.emit("degraded_to_serial", reason=reason)
        self._narrate(f"degraded to serial execution: {reason}", force=True)

    # ------------------------------------------------------------ summary

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._t0

    @property
    def quanta_per_s(self) -> float:
        dt = self.elapsed_s
        return self.sim_quanta / dt if dt > 0 else 0.0

    def summary(self) -> dict[str, float | int]:
        out: dict[str, float | int] = {
            "done": self.done,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "sim_quanta": self.sim_quanta,
            "elapsed_s": round(self.elapsed_s, 3),
            "quanta_per_s": round(self.quanta_per_s, 1),
        }
        if self.invariant_tasks:
            out["invariant_tasks"] = self.invariant_tasks
            out["invariant_violations"] = self.invariant_violations
        if self.batch_fallbacks:
            out["batch_fallbacks"] = self.batch_fallbacks
        return out

    def close(self) -> None:
        self.emit("summary", **self.summary())
        self._narrate(self.render_summary(), force=True)
        if self._events is not None:
            self._events.close()
            self._events = None

    def render_summary(self) -> str:
        s = self.summary()
        line = (
            f"{s['done']} executed, {s['failed']} failed, "
            f"{s['cache_hits']} cache hits, {s['retries']} retries "
            f"in {s['elapsed_s']:.1f}s ({s['quanta_per_s']:.0f} quanta/s)"
        )
        if self.invariant_tasks:
            line += (
                f"; invariants: {self.invariant_violations} violation(s) "
                f"across {self.invariant_tasks} checked task(s)"
            )
        if self.batch_fallbacks:
            line += f"; {self.batch_fallbacks} batch(es) fell back to scalar"
        return line

    # ------------------------------------------------------------ private

    def _narrate(self, message: str, force: bool = False) -> None:
        if self.stream is None:
            return
        now = time.monotonic()
        if not force and not self.verbose and now - self._last_line < 1.0:
            return
        self._last_line = now
        state = (
            f"{self.done} done / {self.running} running / "
            f"{self.queued} queued / {self.failed} failed / "
            f"{self.cache_hits} hits"
        )
        print(f"[{self.label}] {message} | {state}", file=self.stream)
