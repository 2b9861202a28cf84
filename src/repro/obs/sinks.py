"""Event sinks: JSONL file, bounded ring buffer, Chrome trace exporter.

A sink is any object with ``accept(event)`` (and optionally ``close()``),
attached to an :class:`~repro.obs.events.EventBus`.  The three provided
here cover the workflows the subsystem exists for:

* :class:`JsonlSink` — one JSON object per line, schema-versioned, with
  atomic size-bounded rotation (``trace.jsonl`` → ``trace.jsonl.1`` …);
  the format ``repro trace`` emits and ``repro trace-diff`` consumes.
* :class:`RingBufferSink` — keep-last in-memory buffer for tests, crash
  forensics and (future) live dashboards; bounded, so it can stay
  attached for arbitrarily long runs.
* :class:`ChromeTraceSink` — Chrome/Perfetto ``trace_event`` JSON: one
  track per virtual core showing which thread occupied it each quantum,
  instant events for swaps, counter tracks for fairness and the
  Optimizer's ⟨swapSize, quantaLength⟩ walk.  Open the output at
  ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import IO, Any

from repro.obs.events import (
    Event,
    FairnessComputed,
    OptimizerStep,
    QuantumEnd,
    QuantumStart,
    SwapExecuted,
)

__all__ = ["JsonlSink", "RingBufferSink", "ChromeTraceSink", "KindTallySink"]


class JsonlSink:
    """Append events to a JSONL file with optional atomic rotation.

    Parameters
    ----------
    path:
        Output file; parent directories are created.
    max_bytes:
        Rotate when the current file would exceed this size (None = never).
        Rotation shifts ``path.N`` → ``path.N+1`` with :func:`os.replace`
        (atomic on POSIX) and truncates generations beyond ``keep``.
    keep:
        Number of rotated generations retained.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int | None = None,
        keep: int = 3,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive or None")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.keep = keep
        self.n_events = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: IO[str] | None = self.path.open("w")
        self._written = 0

    def accept(self, event: Event) -> None:
        if self._file is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
        if (
            self.max_bytes is not None
            and self._written > 0
            and self._written + len(line) > self.max_bytes
        ):
            self._rotate()
        self._file.write(line)
        self._written += len(line)
        self.n_events += 1

    def _rotate(self) -> None:
        assert self._file is not None
        self._file.close()
        # Shift .N-1 → .N oldest-first; the previous .keep generation is
        # overwritten by os.replace (atomic on POSIX).
        for gen in range(self.keep, 0, -1):
            src = self._generation(gen - 1)
            if src.exists():
                os.replace(src, self._generation(gen))
        self._file = self.path.open("w")
        self._written = 0

    def _generation(self, gen: int) -> Path:
        return self.path if gen == 0 else Path(f"{self.path}.{gen}")

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class RingBufferSink:
    """Bounded keep-last buffer of the most recent events."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque[Event] = deque(maxlen=capacity)
        self.n_seen = 0  # total accepted, including evicted

    def accept(self, event: Event) -> None:
        self._buffer.append(event)
        self.n_seen += 1

    def events(self, kind: str | None = None) -> list[Event]:
        """Buffered events, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self._buffer)
        return [e for e in self._buffer if e.kind == kind]

    def drain(self) -> list[Event]:
        """Return and clear the buffer."""
        out = list(self._buffer)
        self._buffer.clear()
        return out

    def __len__(self) -> int:
        return len(self._buffer)


class KindTallySink:
    """Count events per kind — the cheapest possible run summary.

    Used by ``repro trace`` for its closing per-kind table; handy in
    tests to assert an instrumented code path actually fired.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def accept(self, event: Event) -> None:
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1

    def total(self) -> int:
        return sum(self.counts.values())


class ChromeTraceSink:
    """Build a Chrome ``trace_event`` view of a run.

    Layout: pid 0 is the machine; each virtual core is a Chrome "thread"
    (track).  Every quantum contributes one complete ("X") slice per
    occupied vcore named after the occupant (args carry its access rate);
    swaps appear as instant ("i") events on both destination tracks; the
    fairness signal and the Optimizer's parameters are counter ("C")
    tracks.  Sim seconds are mapped to trace microseconds.
    """

    _PID = 0

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._events: list[dict[str, Any]] = []
        self._vcores_seen: set[int] = set()
        self._quantum_start_s = 0.0

    # ---------------------------------------------------------- ingestion

    def accept(self, event: Event) -> None:
        if isinstance(event, QuantumStart):
            self._quantum_start_s = event.time_s
        elif isinstance(event, QuantumEnd):
            start_us = self._quantum_start_s * 1e6
            duration_us = max(event.time_s * 1e6 - start_us, 0.0)
            for tid, vcore in sorted(event.assignments.items()):
                self._vcores_seen.add(vcore)
                self._events.append({
                    "ph": "X", "pid": self._PID, "tid": vcore,
                    "ts": start_us, "dur": duration_us,
                    "name": f"t{tid}", "cat": "quantum",
                    "args": {
                        "quantum": event.quantum,
                        "access_rate": event.access_rates.get(tid, 0.0),
                    },
                })
        elif isinstance(event, SwapExecuted):
            ts = event.time_s * 1e6
            for tid, vcore, other in (
                (event.tid_a, event.vcore_a, event.tid_b),
                (event.tid_b, event.vcore_b, event.tid_a),
            ):
                self._vcores_seen.add(vcore)
                self._events.append({
                    "ph": "i", "pid": self._PID, "tid": vcore,
                    "ts": ts, "s": "t", "cat": "swap",
                    "name": f"swap t{tid}<->t{other}",
                    "args": {"quantum": event.quantum},
                })
        elif isinstance(event, FairnessComputed):
            self._counter(event.time_s, "fairness", {
                "cv": 0.0 if event.value != event.value else event.value,
            })
        elif isinstance(event, OptimizerStep):
            self._counter(event.time_s, "dike-config", {
                "swapSize": event.new_swap_size,
                "quantaLength_ms": event.new_quanta_s * 1e3,
            })

    def _counter(self, time_s: float, name: str, args: dict[str, Any]) -> None:
        self._events.append({
            "ph": "C", "pid": self._PID, "tid": 0,
            "ts": time_s * 1e6, "name": name, "args": args,
        })

    # ------------------------------------------------------------- export

    def trace_document(self) -> dict[str, Any]:
        """The complete ``trace_event`` JSON document."""
        meta: list[dict[str, Any]] = [{
            "ph": "M", "pid": self._PID, "tid": 0,
            "name": "process_name", "args": {"name": "simulation"},
        }]
        for vcore in sorted(self._vcores_seen):
            meta.append({
                "ph": "M", "pid": self._PID, "tid": vcore,
                "name": "thread_name", "args": {"name": f"vcore {vcore}"},
            })
            meta.append({
                "ph": "M", "pid": self._PID, "tid": vcore,
                "name": "thread_sort_index", "args": {"sort_index": vcore},
            })
        return {
            "traceEvents": meta + self._events,
            "displayTimeUnit": "ms",
        }

    def export(self, path: str | Path | None = None) -> Path:
        """Write the trace document (to ``path`` or the configured path)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no output path configured for ChromeTraceSink")
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(self.trace_document()))
        os.replace(tmp, target)
        return target

    def close(self) -> None:
        if self.path is not None:
            self.export()

    def __len__(self) -> int:
        return len(self._events)
