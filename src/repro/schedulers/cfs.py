"""Approximation of Linux's Completely Fair Scheduler (the paper's baseline).

CFS equalises *CPU time*, not contention: with one thread per virtual core
(the paper's setup) it places threads in wake order, spread breadth-first
across packages, and afterwards only intervenes to fix run-queue imbalance
— it never considers memory intensity or core speed.  We model exactly
that observable behaviour:

* initial placement = the wake-order spread (see
  :func:`repro.schedulers.base.spread_placement`);
* each rebalance interval, if a physical core hosts two busy hardware
  threads while another physical core is completely idle (this happens as
  benchmarks finish), one thread moves to the idle core — preferring the
  *same socket* first, as Linux's domain hierarchy does;
* no other migrations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.schedulers.base import Action, Move, Scheduler, SchedulingContext, gated
from repro.sim.counters import QuantumCounters
from repro.sim.smt import busy_vcores_per_core
from repro.util.validation import check_positive

__all__ = ["CFSScheduler"]


def _idle_beside_crowded(topology, occupancy: np.ndarray) -> np.ndarray:
    """Rows with an idle physical core while another hosts two or more
    busy hardware threads: exactly when ``CFSScheduler.decide`` moves."""
    load = busy_vcores_per_core(
        occupancy.ravel(), topology.vcore_physical, topology.n_physical_cores
    ).reshape(len(occupancy), -1)
    return (load == 0).any(axis=1) & (load >= 2).any(axis=1)


class CFSScheduler(Scheduler):
    """Contention-blind Linux-like baseline."""

    name = "cfs"

    def __init__(self, rebalance_interval_s: float = 0.1) -> None:
        self.rebalance_interval_s = check_positive(
            rebalance_interval_s, "rebalance_interval_s"
        )

    def prepare(self, context: SchedulingContext) -> None:
        super().prepare(context)

    def quantum_length_s(self) -> float:
        return self.rebalance_interval_s

    @gated(_idle_beside_crowded)
    def decide(
        self, counters: QuantumCounters, placement: dict[int, int]
    ) -> Sequence[Action]:
        topo = self.context.topology
        busy_vcores = set(placement.values())
        # Busy hardware-thread count per physical core.
        phys_load = np.zeros(topo.n_physical_cores, dtype=np.int64)
        for v in busy_vcores:
            phys_load[topo.vcore_physical[v]] += 1
        idle_phys = [p for p in range(topo.n_physical_cores) if phys_load[p] == 0]
        if not idle_phys:
            return ()

        moves: list[Move] = []
        moved_tids: set[int] = set()
        # Threads on SMT-crowded cores, in tid order for determinism.
        for tid in sorted(placement):
            if not idle_phys:
                break
            if tid in moved_tids:
                continue
            vcore = placement[tid]
            phys = int(topo.vcore_physical[vcore])
            if phys_load[phys] < 2:
                continue
            my_socket = int(topo.vcore_socket[vcore])
            # Prefer an idle physical core on the same socket (cheaper), as
            # Linux's scheduling domains do.
            idle_phys.sort(
                key=lambda p: (self._socket_of_phys(p) != my_socket, p)
            )
            target_phys = idle_phys.pop(0)
            target_vcore = self._first_vcore_of_phys(target_phys)
            moves.append(Move(tid=tid, vcore=target_vcore))
            moved_tids.add(tid)
            phys_load[phys] -= 1
            phys_load[target_phys] += 1
        return moves

    def _socket_of_phys(self, phys: int) -> int:
        topo = self.context.topology
        vcores = np.flatnonzero(topo.vcore_physical == phys)
        return int(topo.vcore_socket[vcores[0]])

    def _first_vcore_of_phys(self, phys: int) -> int:
        topo = self.context.topology
        return int(np.flatnonzero(topo.vcore_physical == phys)[0])

    def describe(self) -> dict[str, object]:
        return {
            "policy": self.name,
            "rebalance_interval_s": self.rebalance_interval_s,
        }
