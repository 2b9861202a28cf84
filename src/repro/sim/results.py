"""Run results: everything an experiment needs after a simulation finishes.

A :class:`RunResult` is a pure data object — metrics (`repro.metrics`) are
computed *from* it, never stored pre-baked, so one run can feed several
figures.  The only derived values kept here are conveniences that every
consumer wants (makespan, per-benchmark finish times).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.sim.trace import TraceRecorder

__all__ = ["BenchmarkResult", "PredictionLog", "PredictionRecord", "RunResult"]


@dataclass(frozen=True)
class BenchmarkResult:
    """Outcome of one benchmark instance within a workload run."""

    group_id: int
    benchmark: str
    thread_finish_times: tuple[float, ...]
    n_migrations: int
    #: simulation time at which the instance entered the system
    arrival_s: float = 0.0

    @property
    def finish_time(self) -> float:
        """Absolute completion time of the slowest thread."""
        return max(self.thread_finish_times)

    @property
    def thread_runtimes(self) -> tuple[float, ...]:
        """Per-thread runtime (finish - arrival) — what Eqn. 4 disperses."""
        return tuple(t - self.arrival_s for t in self.thread_finish_times)

    @property
    def runtime(self) -> float:
        """The instance's runtime: slowest thread's finish minus arrival."""
        return self.finish_time - self.arrival_s

    @property
    def mean_thread_time(self) -> float:
        return float(np.mean(self.thread_runtimes))


@dataclass(frozen=True)
class PredictionRecord:
    """One closed-loop prediction and its later ground truth.

    The predictor estimates a thread's access rate for the next quantum at
    swap-decision time; the engine (via the scheduler) back-fills the
    observed value one quantum later.  ``relative_error`` follows the
    paper's convention: positive = overestimate, negative = underestimate.
    """

    time_s: float
    quantum_index: int
    tid: int
    predicted_rate: float
    actual_rate: float

    @property
    def relative_error(self) -> float:
        if self.actual_rate <= 0.0:
            return float("nan")
        return (self.predicted_rate - self.actual_rate) / self.actual_rate


class PredictionLog(Sequence):
    """A run's :class:`PredictionRecord` rows, stored as five columns.

    The columns are aligned, read-only NumPy arrays named after the
    record's fields (``time_s``, ``quantum_index``, ``tid``,
    ``predicted_rate``, ``actual_rate``); metrics and the wire format
    work on them directly.  The log is also a read-only sequence of
    records: indexing builds one record, slicing gives a log, iterating
    yields records in order.  A log equals another log, or a tuple of
    records, holding the same rows; NaN rates at the same position
    compare equal.
    """

    #: column name -> dtype, in record field order
    COLUMNS = {
        "time_s": np.float64,
        "quantum_index": np.int64,
        "tid": np.int64,
        "predicted_rate": np.float64,
        "actual_rate": np.float64,
    }
    __slots__ = tuple(COLUMNS)

    def __init__(
        self,
        time_s: Sequence[float] = (),
        quantum_index: Sequence[int] = (),
        tid: Sequence[int] = (),
        predicted_rate: Sequence[float] = (),
        actual_rate: Sequence[float] = (),
    ) -> None:
        """Copy each column into a typed array; ``None`` becomes NaN.

        Raises ``ValueError`` if a value is not a number or the columns
        are not one-dimensional and of equal length.
        """
        values = (time_s, quantum_index, tid, predicted_rate, actual_rate)
        n = None
        for (name, dtype), col in zip(self.COLUMNS.items(), values):
            try:
                arr = np.array(col, dtype=dtype)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"prediction column {name!r}: {exc}") from None
            if arr.ndim != 1 or (n is not None and len(arr) != n):
                raise ValueError(
                    f"prediction column {name!r} has shape {arr.shape}; the "
                    "columns must be one-dimensional and of equal length"
                )
            n = len(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_records(cls, records: Iterable[PredictionRecord]) -> PredictionLog:
        rows = [
            (r.time_s, r.quantum_index, r.tid, r.predicted_rate, r.actual_rate)
            for r in records
        ]
        return cls(*zip(*rows))

    def columns(self) -> tuple[np.ndarray, ...]:
        """The five columns, in record field order."""
        return tuple(getattr(self, name) for name in self.COLUMNS)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __len__(self) -> int:
        return self.tid.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PredictionLog(*(col[index] for col in self.columns()))
        i = operator.index(index)
        return PredictionRecord(*(col[i].item() for col in self.columns()))

    def __iter__(self) -> Iterator[PredictionRecord]:
        for row in zip(*(col.tolist() for col in self.columns())):
            yield PredictionRecord(*row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, tuple) and all(
            isinstance(r, PredictionRecord) for r in other
        ):
            other = PredictionLog.from_records(other)
        if not isinstance(other, PredictionLog):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            for a, b in zip(self.columns(), other.columns())
        )

    def __reduce__(self):
        return PredictionLog, self.columns()

    def __repr__(self) -> str:
        return f"PredictionLog({len(self)} records)"


@dataclass(frozen=True)
class RunResult:
    """Complete record of one ``(workload, policy, config)`` simulation."""

    workload_name: str
    policy_name: str
    seed: int
    makespan_s: float
    n_quanta: int
    benchmarks: tuple[BenchmarkResult, ...]
    swap_count: int
    migration_count: int
    #: closed-loop prediction records (a hand-built sequence of
    #: :class:`PredictionRecord` is converted to a log)
    predictions: PredictionLog = field(default_factory=PredictionLog)
    trace: TraceRecorder | None = None
    #: free-form scheduler/config metadata (quantaLength schedule etc.)
    info: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.predictions, PredictionLog):
            object.__setattr__(
                self, "predictions", PredictionLog.from_records(self.predictions)
            )

    def benchmark_named(self, name: str) -> BenchmarkResult:
        for b in self.benchmarks:
            if b.benchmark == name:
                return b
        raise KeyError(f"no benchmark named {name!r} in run")

    def benchmark_finish_times(self, include: tuple[str, ...] | None = None) -> dict[str, float]:
        """Map benchmark name -> finish time (first instance per name)."""
        out: dict[str, float] = {}
        for b in self.benchmarks:
            if include is not None and b.benchmark not in include:
                continue
            out.setdefault(b.benchmark, b.finish_time)
        return out

    @property
    def benchmark_names(self) -> tuple[str, ...]:
        return tuple(b.benchmark for b in self.benchmarks)

    def __repr__(self) -> str:
        return (
            f"RunResult({self.workload_name}, {self.policy_name}, "
            f"makespan={self.makespan_s:.1f}s, swaps={self.swap_count})"
        )
