"""The static record of one simulated thread.

A :class:`SimThread` names a thread (dense tid, benchmark, process group,
member index) and carries its behaviour: the
:class:`~repro.sim.phases.PhaseTrace` and the barrier positions.  It never
changes.  Everything that changes as a thread executes — placement,
progress, warm-up, barrier position, completion — is a column of the
engine's :class:`~repro.sim.state.SimState`, indexed by tid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.phases import PhaseTrace
from repro.util.validation import require

__all__ = ["SimThread"]


@dataclass(frozen=True)
class SimThread:
    """One OS thread of one benchmark process.

    Parameters
    ----------
    tid:
        Dense global thread id assigned by the engine (index into all
        per-thread arrays).
    benchmark:
        Name of the owning benchmark (e.g. ``"jacobi"``).
    group:
        Process-group id — threads with the same group belong to the same
        benchmark instance and synchronise at its barriers.
    member:
        Index of this thread within its group.
    trace:
        The phase trace driving its behaviour.
    barrier_fractions:
        Sorted fractions of total work at which the thread must wait for the
        rest of its group (empty for barrier-free benchmarks).
    """

    tid: int
    benchmark: str
    group: int
    member: int
    trace: PhaseTrace
    barrier_fractions: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        require(self.tid >= 0, "tid must be >= 0")
        fr = tuple(sorted(self.barrier_fractions))
        require(all(0.0 < f < 1.0 for f in fr), "barrier fractions must be in (0,1)")
        object.__setattr__(self, "barrier_fractions", fr)

    @property
    def total_work(self) -> float:
        return self.trace.total_work
