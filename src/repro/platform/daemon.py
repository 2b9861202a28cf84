"""Userspace scheduling daemon: drive a Scheduler through platform backends.

This is the deployment shape of the paper's system — a small loop that
every ``quantaLength``:

1. samples per-thread counters from a :class:`PerfBackend`,
2. packages them as the :class:`QuantumCounters` the scheduler expects,
3. asks the scheduler for actions,
4. enforces them through an :class:`AffinityBackend`
   (``Swap`` = two affinity changes, ``Move`` = one; ``Suspend`` is
   recorded but not enforceable via affinity and is reported back).

The daemon is clock-injectable (pass ``clock``/``sleep``) so tests run it
against fake backends without real time; on a live Linux system it runs
with :class:`~repro.platform.linux.LinuxAffinityBackend` — subject to the
fidelity caveat in DESIGN.md §2 (Python sampling overhead), which is why
the quantitative experiments use the simulator instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.platform.iface import AffinityBackend, CounterWindow, PerfBackend
from repro.schedulers.base import (
    Move,
    Placement,
    Scheduler,
    SchedulingContext,
    Suspend,
    Swap,
    ThreadInfo,
)
from repro.sim.counters import QuantumCounters, ThreadSample
from repro.sim.topology import Topology
from repro.util.validation import check_positive, require

__all__ = ["DaemonStats", "SchedulingDaemon"]


@dataclass
class DaemonStats:
    """Counters of one daemon session."""

    quanta: int = 0
    swaps: int = 0
    moves: int = 0
    suspend_requests: int = 0
    sample_failures: int = 0
    enforce_failures: int = 0
    #: (time_s, action) log of enforced actions
    actions: list[tuple[float, object]] = field(default_factory=list)


class SchedulingDaemon:
    """Observe -> decide -> enforce loop over platform backends."""

    def __init__(
        self,
        scheduler: Scheduler,
        perf: PerfBackend,
        affinity: AffinityBackend,
        topology: Topology,
        threads: dict[int, tuple[str, int]],
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """
        Parameters
        ----------
        scheduler:
            Any policy implementing the Scheduler interface.
        perf / affinity:
            Platform backends (simulated or Linux).
        topology:
            Machine description (core count must match the affinity
            backend's view).
        threads:
            tid -> (process name, process group id) of the threads to
            manage.
        clock / sleep:
            Injectable time source — tests pass a fake pair.
        """
        require(len(threads) >= 1, "daemon needs at least one thread to manage")
        require(
            topology.n_vcores <= affinity.n_cores() or True,
            "topology larger than the machine",
        )
        self.scheduler = scheduler
        self.perf = perf
        self.affinity = affinity
        self.topology = topology
        self.threads = dict(threads)
        self.clock = clock
        self.sleep = sleep
        self.stats = DaemonStats()
        infos = tuple(
            ThreadInfo(tid=tid, benchmark=name, group=group, member=i)
            for i, (tid, (name, group)) in enumerate(sorted(self.threads.items()))
        )
        self.scheduler.prepare(
            SchedulingContext(topology=topology, threads=infos)
        )
        self._quantum_index = 0
        self._t0 = self.clock()

    # ------------------------------------------------------------------ API

    def apply_initial_placement(self) -> dict[int, int]:
        """Pin every managed thread to its scheduler-chosen initial core."""
        placement = self.scheduler.initial_placement()
        for tid, vcore in placement.items():
            if tid in self.threads:
                self._set_affinity(tid, vcore)
        return placement

    def run_quantum(self) -> QuantumCounters:
        """Execute one observe/decide/enforce cycle (blocking for Q)."""
        qlen = float(self.scheduler.quantum_length_s())
        check_positive(qlen, "quantum length")
        self.sleep(qlen)
        now = self.clock() - self._t0

        windows = self._sample(qlen)
        placement = self._current_placement()
        counters = self._to_counters(windows, placement, now, qlen)

        actions = self.scheduler.decide(counters, placement)
        for action in actions:
            self._enforce(action, placement, now)
        self.stats.quanta += 1
        self._quantum_index += 1
        return counters

    def run(self, duration_s: float) -> DaemonStats:
        """Run cycles until ``duration_s`` of (injected) clock time passed."""
        check_positive(duration_s, "duration_s")
        end = self.clock() + duration_s
        while self.clock() < end:
            self.run_quantum()
        return self.stats

    # ------------------------------------------------------------- internals

    def _sample(self, window_s: float) -> list[CounterWindow]:
        try:
            return self.perf.sample(sorted(self.threads), window_s)
        except OSError:
            self.stats.sample_failures += 1
            return []

    def _current_placement(self) -> Placement:
        """Each readable thread's lowest allowed core, sorted by tid."""
        readings: dict[int, int] = {}
        for tid in self.threads:
            try:
                cores = self.affinity.get_affinity(tid)
            except OSError:
                self.stats.enforce_failures += 1
                continue
            if cores:
                readings[tid] = min(cores)
        return Placement.of(readings)

    def _to_counters(
        self,
        windows: list[CounterWindow],
        placement: Placement,
        now: float,
        qlen: float,
    ) -> QuantumCounters:
        samples = tuple(
            ThreadSample(
                tid=w.tid,
                vcore=placement.get(w.tid, -1),
                instructions=w.instructions,
                llc_accesses=w.llc_accesses,
                llc_misses=w.llc_misses,
                runtime_s=w.window_s,
            )
            for w in windows
            if w.tid in self.threads
        )
        core_bw = np.zeros(self.topology.n_vcores)
        for s in samples:
            if 0 <= s.vcore < core_bw.size:
                core_bw[s.vcore] += s.access_rate
        return QuantumCounters(
            quantum_index=self._quantum_index,
            time_s=now,
            quantum_length_s=qlen,
            samples=samples,
            core_bandwidth=core_bw,
        )

    def _enforce(self, action, placement: Placement, now: float) -> None:
        if isinstance(action, Swap):
            va = placement.get(action.tid_a)
            vb = placement.get(action.tid_b)
            if va is None or vb is None:
                self.stats.enforce_failures += 1
                return
            self._set_affinity(action.tid_a, vb)
            self._set_affinity(action.tid_b, va)
            self.stats.swaps += 1
        elif isinstance(action, Move):
            self._set_affinity(action.tid, action.vcore)
            self.stats.moves += 1
        elif isinstance(action, Suspend):
            # Affinity cannot suspend; surfaced in stats so callers notice.
            self.stats.suspend_requests += 1
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown action {action!r}")
        self.stats.actions.append((now, action))

    def _set_affinity(self, tid: int, vcore: int) -> None:
        try:
            self.affinity.set_affinity(tid, {vcore})
        except OSError:
            self.stats.enforce_failures += 1
