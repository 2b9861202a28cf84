"""Cached solo-run baselines for job-slowdown accounting.

A job's **slowdown** is its observed latency (arrival to completion)
divided by the runtime the same job would have had *alone* on the same
machine — the standard normalisation of tail-latency studies, and the
same denominator Figure 1 uses for per-benchmark slowdown.  This module
computes and memoises those denominators: one deterministic standalone
run per distinct ``(app, n_threads, size, work_scale, topology, seed)``
combination, placed fastest-cores-first and never migrated (the
``run_standalone`` convention).

The cache is process-local (`functools.lru_cache`); campaign workers each
warm their own copy, which costs a handful of sub-second solo runs per
worker — negligible next to the open-loop runs themselves and free of
cross-process coordination.  With the batched engine one worker process
summarises a whole batch of open-loop runs, so the memo amortises across
every lane of the batch; :func:`baseline_cache_stats` exposes process-wide
hit/miss counters so that reuse is observable (``summarize_result`` stamps
the per-call delta into ``info["traffic"]["baseline_cache"]``).
"""

from __future__ import annotations

from functools import lru_cache

from repro.schedulers.static import StaticScheduler
from repro.sim.engine import SimulationEngine
from repro.topologies import TOPOLOGY_REGISTRY
from repro.traffic.replay import TrafficWorkload
from repro.traffic.trace import Job
from repro.util.validation import require

__all__ = ["solo_runtime", "solo_runtimes", "baseline_cache_stats"]

#: Process-wide memo counters for `solo_runtime` (monotonic; consumers
#: diff before/after a call batch to attribute hits).
_CACHE_STATS = {"hits": 0, "misses": 0}


def baseline_cache_stats() -> dict[str, int]:
    """Snapshot of the solo-baseline memo counters for this process."""
    return dict(_CACHE_STATS)

def solo_runtime(
    app: str,
    n_threads: int,
    work_scale: float = 1.0,
    topology: str = "heterogeneous",
    seed: int = 0,
    size: float = 1.0,
    topology_params: tuple[tuple[str, object], ...] = (),
) -> float:
    """Runtime (seconds) of one job running alone on ``topology``.

    Deterministic in its arguments — the run uses the same seed-derived
    per-thread jitter as a traffic run's group 0, a fastest-first static
    placement and zero counter noise (noise only affects the scheduler's
    view, and the static scheduler ignores it anyway).  Memoised per
    process; `baseline_cache_stats` counts the reuse.  ``topology`` is a
    registry preset name; ``topology_params`` its sorted customisation
    pairs (the same form ``TopologyRef.params`` carries), part of the memo key.
    """
    before = _CACHE_STATS["misses"]
    value = _solo_runtime(
        app, n_threads, work_scale, topology, seed, size,
        tuple(topology_params),
    )
    if _CACHE_STATS["misses"] == before:
        _CACHE_STATS["hits"] += 1
    return value


@lru_cache(maxsize=4096)
def _solo_runtime(
    app: str,
    n_threads: int,
    work_scale: float,
    topology: str,
    seed: int,
    size: float,
    topology_params: tuple[tuple[str, object], ...],
) -> float:
    _CACHE_STATS["misses"] += 1
    wl = TrafficWorkload(
        name=f"solo-{app}",
        jobs=(Job(0, app, 0.0, n_threads=n_threads, size=size),),
    )
    engine = SimulationEngine(
        topology=TOPOLOGY_REGISTRY.build(topology, dict(topology_params)),
        groups=wl.build(seed=seed, work_scale=work_scale),
        scheduler=StaticScheduler(fastest_first=True),
        seed=seed,
        counter_noise=0.0,
        record_timeseries=False,
        workload_name=wl.name,
    )
    result = engine.run()
    require(not result.info.get("truncated"), f"solo run of {app!r} truncated")
    return float(result.makespan_s)


def solo_runtimes(
    jobs,
    work_scale: float = 1.0,
    topology: str = "heterogeneous",
    seed: int = 0,
    topology_params: tuple[tuple[str, object], ...] = (),
) -> dict[tuple[str, int, float], float]:
    """Baselines for every distinct ``(app, n_threads, size)`` in ``jobs``."""
    out: dict[tuple[str, int, float], float] = {}
    for job in jobs:
        key = (job.app, job.n_threads, job.size)
        if key not in out:
            out[key] = solo_runtime(
                job.app, job.n_threads, work_scale, topology, seed, job.size,
                topology_params=topology_params,
            )
    return out
