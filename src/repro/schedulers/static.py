"""Static pinning: the do-nothing scheduler.

Used as the standalone/isolation baseline (Figure 1's "Standalone" bars run
one benchmark under static pinning on fast cores) and as a control in
ablation benches — it isolates the effect of *any* migration policy from
the physics of the machine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.schedulers.base import Action, Scheduler, gated
from repro.sim.counters import QuantumCounters
from repro.util.validation import check_positive

__all__ = ["StaticScheduler"]


def _never(topology, occupancy: np.ndarray) -> np.ndarray:
    return np.zeros(len(occupancy), dtype=bool)


class StaticScheduler(Scheduler):
    """Pin threads at their initial placement and never migrate."""

    name = "static"

    def __init__(
        self,
        quantum_s: float = 0.5,
        placement: dict[int, int] | None = None,
        fastest_first: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        quantum_s:
            Observation granularity (affects only simulation resolution).
        placement:
            Explicit tid -> vcore map; overrides the default spread.
        fastest_first:
            Place threads on the fastest cores first, one per physical core
            (the standalone-run convention), instead of the Linux spread.
        """
        self.quantum_s = check_positive(quantum_s, "quantum_s")
        self._explicit_placement = dict(placement) if placement else None
        self.fastest_first = fastest_first

    def initial_placement(self) -> dict[int, int]:
        if self._explicit_placement is not None:
            return dict(self._explicit_placement)
        if not self.fastest_first:
            return super().initial_placement()
        topo = self.context.topology
        # One thread per physical core, fastest cores first, SMT last.
        order = sorted(
            topo.vcores, key=lambda v: (v.smt_id, -v.freq_hz, v.physical_id)
        )
        return {
            t.tid: order[i % len(order)].vcore_id
            for i, t in enumerate(self.context.threads)
        }

    def quantum_length_s(self) -> float:
        return self.quantum_s

    @gated(_never)
    def decide(
        self, counters: QuantumCounters, placement: dict[int, int]
    ) -> Sequence[Action]:
        return ()

    def describe(self) -> dict[str, object]:
        return {
            "policy": self.name,
            "quantum_s": self.quantum_s,
            "fastest_first": self.fastest_first,
        }
