"""Scheduler interface shared by CFS, DIO, Dike and the ablation variants.

A scheduler interacts with the machine exclusively through:

* an **initial placement** of threads onto virtual cores,
* a per-quantum **decision** — a list of :class:`Swap`/:class:`Move`
  actions — computed from :class:`~repro.sim.counters.QuantumCounters`
  (the hardware-counter view) and the current placement,
* its requested **quantum length** (adaptive schedulers change it at
  runtime).

This is precisely the contract of a user-level contention-aware scheduler
on Linux (read perf counters, call ``sched_setaffinity``), so everything
implemented against it would port to the real-platform backend.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.events import NULL_BUS, EventBus
from repro.sim.counters import QuantumCounters
from repro.sim.results import PredictionLog
from repro.sim.topology import Topology
from repro.util.validation import require

__all__ = [
    "ThreadInfo",
    "SchedulingContext",
    "Move",
    "Swap",
    "Suspend",
    "Action",
    "Scheduler",
    "spread_placement",
]


@dataclass(frozen=True)
class ThreadInfo:
    """Static facts about a thread that an OS scheduler would know."""

    tid: int
    benchmark: str
    group: int
    member: int


@dataclass(frozen=True)
class SchedulingContext:
    """Everything handed to a scheduler before a run starts.

    ``bus`` is the observability event bus (`repro.obs`) instrumented
    schedulers emit their per-quantum decisions through; the default is
    the shared no-op bus, so policies that ignore it cost nothing.
    """

    topology: Topology
    threads: tuple[ThreadInfo, ...]
    seed: int = 0
    bus: EventBus = field(default=NULL_BUS, compare=False, repr=False)

    @property
    def n_threads(self) -> int:
        return len(self.threads)


@dataclass(frozen=True)
class Move:
    """Unilateral migration of one thread to a (possibly idle) core."""

    tid: int
    vcore: int


@dataclass(frozen=True)
class Swap:
    """Pairwise exchange of two threads' cores — the paper's primitive."""

    tid_a: int
    tid_b: int

    def __post_init__(self) -> None:
        require(self.tid_a != self.tid_b, "cannot swap a thread with itself")


@dataclass(frozen=True)
class Suspend:
    """Pause a thread for a number of quanta (no progress, no bandwidth).

    The enforcement mechanism the paper argues *against* ("suspending
    threads ... slows down performance significantly as fast threads are
    idle waiting for the slowest threads to catch up", §III-E) — provided
    so suspension-based fairness policies can be evaluated against
    migration-based ones.
    """

    tid: int
    quanta: int = 1

    def __post_init__(self) -> None:
        require(self.quanta >= 1, "suspension must last >= 1 quantum")


Action = Move | Swap | Suspend


class Scheduler(abc.ABC):
    """Base class for all scheduling policies."""

    #: Human-readable policy name used in results and reports.
    name: str = "base"

    def prepare(self, context: SchedulingContext) -> None:
        """Reset internal state for a new run (must be idempotent)."""
        self._context = context

    @property
    def context(self) -> SchedulingContext:
        ctx = getattr(self, "_context", None)
        if ctx is None:
            raise RuntimeError(f"{type(self).__name__}.prepare() was never called")
        return ctx

    def initial_placement(self) -> dict[int, int]:
        """Thread id -> virtual core id at time zero.

        The default is the Linux-like breadth-first spread (one thread per
        physical core across sockets before filling SMT siblings), which
        ignores memory intensity — matching the wake-time information a
        real scheduler has.
        """
        return spread_placement(self.context)

    @abc.abstractmethod
    def quantum_length_s(self) -> float:
        """Length of the next scheduling quantum in seconds."""

    @abc.abstractmethod
    def decide(
        self, counters: QuantumCounters, placement: dict[int, int]
    ) -> Sequence[Action]:
        """Return migrations to apply at this quantum boundary.

        ``placement`` maps every *live* thread to its current virtual core;
        actions may only reference live threads.
        """

    def drain_prediction_records(self) -> PredictionLog:
        """Prediction/ground-truth pairs accumulated so far (predictive
        schedulers override; the base returns the empty log)."""
        return PredictionLog()

    def describe(self) -> dict[str, object]:
        """Config metadata stored into :class:`RunResult.info`."""
        return {"policy": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def spread_placement(context: SchedulingContext) -> dict[int, int]:
    """Breadth-first placement: fill SMT level 0 across sockets round-robin,
    then SMT level 1, in thread wake (tid) order.

    With ``n_threads == n_vcores`` (the paper's setup: 40 threads on 40
    virtual cores) every virtual core hosts exactly one thread; with fewer
    threads, SMT siblings stay idle as long as possible — both matching
    Linux CFS behaviour at wake time.
    """
    topo = context.topology
    order: list[int] = []
    # Group vcores by SMT level, interleaving sockets within a level so a
    # multi-threaded benchmark's threads straddle fast and slow sockets.
    max_smt = max(v.smt_id for v in topo.vcores) + 1
    for smt in range(max_smt):
        level = [v for v in topo.vcores if v.smt_id == smt]
        # Interleave sockets: physical index within socket is the major key.
        level.sort(key=lambda v: (v.physical_id % _cores_per_socket(topo, v.socket_id),
                                  v.socket_id))
        order.extend(v.vcore_id for v in level)
    placement: dict[int, int] = {}
    for i, tinfo in enumerate(context.threads):
        placement[tinfo.tid] = order[i % len(order)]
    return placement


def _cores_per_socket(topo: Topology, socket_id: int) -> int:
    return topo.sockets[socket_id].n_physical_cores
