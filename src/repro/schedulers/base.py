"""Scheduler interface shared by CFS, DIO, Dike and the ablation variants.

A scheduler interacts with the machine exclusively through:

* an **initial placement** of threads onto virtual cores,
* a per-quantum **decision** — a list of :class:`Swap`/:class:`Move`
  actions — computed from :class:`~repro.sim.counters.QuantumCounters`
  (the hardware-counter view) and the current :class:`Placement`,
* its requested **quantum length** (adaptive schedulers change it at
  runtime),
* optionally, a **decide gate** (:func:`gated`) telling the engine on
  which quanta ``decide`` can act at all, so it can skip the call and
  the counter window that feeds it.

This is precisely the contract of a user-level contention-aware scheduler
on Linux (read perf counters, call ``sched_setaffinity``), so everything
implemented against it would port to the real-platform backend.
"""

from __future__ import annotations

import abc
from collections.abc import ItemsView, Iterator, KeysView, Mapping, ValuesView
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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
    "Placement",
    "Scheduler",
    "DecideGate",
    "gated",
    "spread_placement",
]

#: ``gate(topology, occupancy) -> mask``: ``occupancy`` holds live-thread
#: counts per virtual core, one row per run; the mask is True for the
#: rows whose ``decide`` could return actions this quantum.
DecideGate = Callable[[Topology, np.ndarray], np.ndarray]


def gated(gate: DecideGate):
    """Declare when a ``decide`` implementation can act.

    The decorated ``decide`` must return no actions on a row where
    ``gate`` is False, and must not read its counters (it receives
    ``None`` unless something else needed the window).  The engines
    then call it only where the gate opens and build no counters for
    it; one gate call covers every run a batch steps.  The gate belongs
    to the function, so a subclass that overrides ``decide`` is called
    every quantum again unless it declares its own.
    """

    def mark(decide):
        decide.gate = gate
        return decide

    return mark


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


class Placement(Mapping[int, int]):
    """tid -> vcore of every live thread, as two aligned read-only int64
    columns: ``tids`` in ascending order and ``vcores``.

    A read-only mapping over the columns that builds no dict: iteration,
    ``len``, ``keys``, ``values`` and ``items`` read them, and
    ``placement[tid]`` and ``tid in placement`` search ``tids``.  Array
    code takes the columns as they are, and looks up many tids with one
    search (:meth:`holds`, :meth:`vcores_of`); dict code keeps working.
    """

    __slots__ = ("tids", "vcores")

    def __init__(self, tids: np.ndarray, vcores: np.ndarray) -> None:
        """Aligned 1-D columns, ``tids`` ascending (:meth:`of` sorts a
        mapping); the placement holds read-only views of them."""
        self.tids = np.asarray(tids, dtype=np.int64).view()
        self.vcores = np.asarray(vcores, dtype=np.int64).view()
        self.tids.flags.writeable = self.vcores.flags.writeable = False

    @classmethod
    def of(cls, placement: Mapping[int, int]) -> "Placement":
        """``placement`` as columns (itself if it is one already)."""
        if isinstance(placement, cls):
            return placement
        n = len(placement)
        tids = np.fromiter(placement, np.int64, n)
        order = tids.argsort(kind="stable")
        return cls(tids[order], np.fromiter(placement.values(), np.int64, n)[order])

    def __getitem__(self, tid: int) -> int:
        tids = self.tids
        i = int(tids.searchsorted(tid))
        if i < tids.size and tids[i] == tid:
            return self.vcores.item(i)
        raise KeyError(tid)

    def holds(self, tids: np.ndarray) -> np.ndarray:
        """Whether each of ``tids`` is placed, from one search of ``tids``."""
        if not self.tids.size:
            return np.zeros(len(tids), dtype=bool)
        return self.tids.take(self.tids.searchsorted(tids), mode="clip") == tids

    def vcores_of(self, tids: list[int]) -> list[int]:
        """``[placement[tid] for tid in tids]`` from one search of
        ``tids``; ``KeyError`` names the first tid that is not placed."""
        if tids and not self.tids.size:
            raise KeyError(tids[0])
        rows = self.tids.searchsorted(tids)
        found = self.tids.take(rows, mode="clip").tolist()
        if found != tids:
            raise KeyError(next(t for t, f in zip(tids, found) if t != f))
        return self.vcores.take(rows).tolist()

    def __iter__(self) -> Iterator[int]:
        return iter(self.tids.tolist())

    def __len__(self) -> int:
        return self.tids.size

    def keys(self) -> KeysView[int]:
        return _Tids(self)

    def values(self) -> ValuesView[int]:
        return _Vcores(self)

    def items(self) -> ItemsView[int, int]:
        return _Pairs(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _Tids(KeysView):
    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping.tids.tolist())


class _Vcores(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping.vcores.tolist())


class _Pairs(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._mapping.tids.tolist(), self._mapping.vcores.tolist())


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
        self, counters: QuantumCounters, placement: Placement
    ) -> Sequence[Action]:
        """Return migrations to apply at this quantum boundary.

        ``placement`` maps every *live* thread to its current virtual core
        (a read-only mapping that also carries the ``tids`` and ``vcores``
        columns); actions may only reference live threads.
        """

    def decide_gate(self) -> DecideGate | None:
        """When :meth:`decide` needs calling: its :func:`gated` gate, or
        ``None`` — every quantum, with a counter window."""
        return getattr(self.decide, "gate", None)

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
