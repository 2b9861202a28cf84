"""Benchmark specifications and instantiation into simulator process groups.

A :class:`BenchmarkSpec` is the static description of one application: its
name, nominal intensity class (memory- vs compute-intensive, Table II's
bold/plain distinction), thread count, barrier structure and a *trace
builder* that produces the phase trace for one thread.  ``instantiate``
turns a spec into a live :class:`~repro.sim.process.ProcessGroup` with
per-thread jittered traces (homogeneous threads are near- but not
bit-identical, as on real hardware).

``work_scale`` uniformly scales every thread's instruction count; the
experiment harness uses it to run shape-preserving, faster versions of the
paper's workloads inside the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sim.phases import PhaseTrace, perturbed
from repro.sim.process import ProcessGroup
from repro.sim.thread import SimThread
from repro.util.rng import make_rng
from repro.util.validation import check_positive, require

__all__ = ["Intensity", "BenchmarkSpec", "instantiate"]

#: Nominal intensity labels used by Table II.
Intensity = str  # "M" | "C"

TraceBuilder = Callable[[np.random.Generator, float], PhaseTrace]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one benchmark application.

    Parameters
    ----------
    name:
        Application name (``"jacobi"`` ...).
    intensity:
        Nominal class from Table II: ``"M"`` (memory) or ``"C"`` (compute).
        Schedulers never see this — they classify online from counters;
        it drives workload-suite bookkeeping and ground-truth tests.
    build_trace:
        ``(rng, work_scale) -> PhaseTrace`` for a representative thread.
    n_threads:
        Threads per instance (8 in every paper workload).
    barrier_fractions:
        Work fractions at which all threads of an instance synchronise
        (KMEANS-style inter-thread communication); empty for data-parallel
        apps without global barriers.
    thread_jitter:
        Relative spread applied per thread to the trace (work and rates).
    """

    name: str
    intensity: Intensity
    build_trace: TraceBuilder
    n_threads: int = 8
    barrier_fractions: tuple[float, ...] = ()
    thread_jitter: float = 0.02

    def __post_init__(self) -> None:
        require(self.intensity in ("M", "C"), "intensity must be 'M' or 'C'")
        require(self.n_threads >= 1, "n_threads must be >= 1")
        require(
            all(0.0 < f < 1.0 for f in self.barrier_fractions),
            "barrier fractions must be in (0, 1)",
        )

    @property
    def is_memory_intensive(self) -> bool:
        return self.intensity == "M"


def instantiate(
    spec: BenchmarkSpec,
    group_id: int,
    tid_start: int,
    seed: int,
    work_scale: float = 1.0,
    arrival_s: float = 0.0,
) -> ProcessGroup:
    """Build a live process group for ``spec`` that arrives at
    ``arrival_s``.

    Thread ids are assigned densely from ``tid_start``; the caller is
    responsible for global tid density across groups.
    """
    check_positive(work_scale, "work_scale")
    base_rng = make_rng(seed, "benchmark", spec.name, str(group_id))
    base_trace = spec.build_trace(base_rng, work_scale)
    threads = []
    for member in range(spec.n_threads):
        thread_rng = make_rng(
            seed, "benchmark", spec.name, str(group_id), f"thread-{member}"
        )
        trace = perturbed(
            base_trace,
            thread_rng,
            work_jitter=spec.thread_jitter,
            rate_jitter=spec.thread_jitter,
        )
        threads.append(
            SimThread(
                tid=tid_start + member,
                benchmark=spec.name,
                group=group_id,
                member=member,
                trace=trace,
                barrier_fractions=spec.barrier_fractions,
            )
        )
    return ProcessGroup(
        group_id=group_id,
        benchmark=spec.name,
        threads=threads,
        arrival_s=arrival_s,
    )
