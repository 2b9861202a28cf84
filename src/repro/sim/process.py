"""Benchmark process groups.

A :class:`ProcessGroup` bundles the threads of one benchmark instance.
Two group-level behaviours follow from it, both run on the engine's
:class:`~repro.sim.state.SimState` columns:

* **barrier release** — the paper's KMEANS "produces excessive inter-thread
  communication"; we model it as periodic all-to-all barriers.  A thread
  that reaches its next barrier blocks (consuming no CPU or bandwidth)
  until every sibling has arrived (:meth:`SimState.release_ready_barriers`),
  which couples the progress of a group's threads and transmits
  unfairness into wasted time;
* **completion** — a benchmark finishes when its slowest thread finishes
  (:attr:`repro.sim.results.BenchmarkResult.finish_time`), which is
  exactly why fairness (low dispersion of sibling runtimes) improves
  benchmark-level performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.thread import SimThread
from repro.util.validation import require

__all__ = ["ProcessGroup"]


@dataclass(frozen=True)
class ProcessGroup:
    """All threads of one running benchmark instance.

    ``arrival_s`` supports open-system experiments: the group's threads do
    not exist (consume no resources, receive no placement) before that
    simulation time — modelling applications entering a running system,
    the scenario the paper uses to motivate runtime adaptation.

    A group never changes once built (``threads`` is a tuple of frozen
    records), so one build can serve many engines:
    `repro.experiments.runner.build_engine` hands the same groups to every
    run of an equal workload, seed and scale in a process.  Derive a
    variant with ``dataclasses.replace``.
    """

    group_id: int
    benchmark: str
    threads: tuple[SimThread, ...]
    arrival_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "threads", tuple(self.threads))
        require(len(self.threads) >= 1, "a process group needs >= 1 thread")
        require(self.arrival_s >= 0.0, "arrival_s must be >= 0")
        for t in self.threads:
            require(t.group == self.group_id, "thread group id mismatch")
            require(t.benchmark == self.benchmark, "thread benchmark mismatch")

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def __repr__(self) -> str:
        return (
            f"ProcessGroup(id={self.group_id}, {self.benchmark}, "
            f"{self.n_threads} threads, arrival_s={self.arrival_s:g})"
        )
