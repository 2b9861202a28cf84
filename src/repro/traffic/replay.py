"""Replaying job traces as engine workloads.

:class:`TrafficWorkload` is the open-system counterpart of
:class:`~repro.workloads.suite.WorkloadSpec`: a sequence of
:class:`~repro.traffic.trace.Job`\\ s whose ``build`` instantiates one
process group per job with dense global thread ids and staggered
``arrival_s`` values the engine activates on time.  It is constructed
either directly from a generator's :class:`JobTrace`
(:func:`workload_from_trace`) or programmatically from jobs.

Build semantics: group ids and thread ids are assigned densely in job
order; per-thread traces derive from ``make_rng(seed, "benchmark", app,
str(gid))`` exactly as closed workloads do; arrival times and job work
both scale with ``work_scale`` so reduced-scale runs keep the same
arrival pattern relative to job lengths; ``Job.size`` additionally
multiplies the job's own work (a 0.25-sized jacobi is a quarter
instance).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.process import ProcessGroup
from repro.traffic.trace import Job, JobTrace
from repro.util.validation import require
from repro.workloads.benchmark import instantiate
from repro.workloads.rodinia import app

__all__ = [
    "TrafficWorkload",
    "workload_from_trace",
    "phased_workload",
]


@dataclass(frozen=True)
class TrafficWorkload:
    """An open-system workload: jobs arriving over time.

    Unlike :class:`~repro.workloads.suite.WorkloadSpec` (closed system,
    everything starts at t=0), jobs arrive at their scheduled time and
    the machine's load — and therefore the optimal scheduler
    configuration — changes as the run progresses.
    """

    name: str
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        # A tuple whatever the caller passed, so equal workloads hash alike.
        object.__setattr__(self, "jobs", tuple(self.jobs))
        require(len(self.jobs) >= 1, "a traffic workload needs >= 1 job")

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_threads(self) -> int:
        return sum(j.n_threads for j in self.jobs)

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        """The ``(app, arrival_s)`` timetable."""
        return tuple((j.app, j.arrival_s) for j in self.jobs)

    def build(self, seed: int, work_scale: float = 1.0) -> list[ProcessGroup]:
        """Instantiate process groups with dense global thread ids.

        Arrival times scale with ``work_scale`` so reduced-scale runs
        keep the same arrival pattern relative to job lengths.
        """
        groups: list[ProcessGroup] = []
        tid = 0
        for gid, job in enumerate(self.jobs):
            spec = app(job.app)
            if spec.n_threads != job.n_threads:
                spec = replace(spec, n_threads=job.n_threads)
            groups.append(
                instantiate(
                    spec,
                    gid,
                    tid,
                    seed,
                    work_scale * job.size,
                    arrival_s=job.arrival_s * work_scale,
                )
            )
            tid += spec.n_threads
        return groups


def workload_from_trace(trace: JobTrace) -> TrafficWorkload:
    """The replay path: a loaded :class:`JobTrace` as a workload."""
    return TrafficWorkload(name=trace.name, jobs=trace.jobs)


def phased_workload(
    name: str = "phased",
    threads_per_app: int = 8,
) -> TrafficWorkload:
    """A workload whose class changes mid-run.

    Phase 1 (t=0) is compute-leaning (UC-ish); at t=40 the memory apps
    arrive and flip the system toward UM — the configuration that was
    right for phase 1 is wrong for phase 2, which is what the Optimizer
    exists to fix.  Arrival times assume ``work_scale=1`` and scale with
    it.
    """
    entries = (
        ("srad", 0.0),
        ("leukocyte", 0.0),
        ("jacobi", 0.0),
        ("kmeans", 0.0),
        ("stream_omp", 40.0),
        ("streamcluster", 40.0),
        ("needle", 55.0),
    )
    return TrafficWorkload(
        name=name,
        jobs=tuple(
            Job(i, app_name, arrival, n_threads=threads_per_app)
            for i, (app_name, arrival) in enumerate(entries)
        ),
    )
