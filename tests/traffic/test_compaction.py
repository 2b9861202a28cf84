"""Long-horizon bounded-memory guarantee: the live-window compaction.

Open-loop runs retire jobs as they finish; `repro.sim.state.SimState`
tracks a live window ``[_live_lo, _arrived_hi)`` so per-quantum cost and
transient state scale with *jobs in flight*, not total jobs submitted.
These tests drive tens of thousands of single-thread jobs through the
engine and assert the window stays at the steady-state queue size —
orders of magnitude below the job count — while every job completes.

Synthetic one-segment traces keep build cost at a few microseconds per
job, so a 20k-job run stays test-suite friendly; set
``REPRO_TRAFFIC_BIG=1`` to run the 100k-job variant the acceptance
criterion was verified with (~25 s).
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.schedulers.static import StaticScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.phases import PhaseSegment, PhaseTrace
from repro.sim.process import ProcessGroup
from repro.sim.thread import SimThread
from repro.sim.topology import homogeneous
from repro.util.rng import make_rng


def poisson_jobs(n: int, mean_gap_s: float, seed: int = 0) -> list[ProcessGroup]:
    """``n`` single-thread jobs with Poisson arrivals and ~0.5 s of work."""
    rng = make_rng(seed, "traffic", "poisson")
    t = 0.0
    groups = []
    for gid in range(n):
        trace = PhaseTrace(
            [PhaseSegment(work=2.0e9, cpi=1.0, api=0.01, miss_ratio=0.1)]
        )
        thread = SimThread(
            tid=gid, benchmark="jacobi", group=gid, member=0, trace=trace
        )
        group = ProcessGroup(group_id=gid, benchmark="jacobi", threads=[thread])
        groups.append(replace(group, arrival_s=t))
        t += float(rng.exponential(mean_gap_s))
    return groups


def run_open_loop(n_jobs: int) -> object:
    engine = SimulationEngine(
        topology=homogeneous(),
        groups=poisson_jobs(n_jobs, mean_gap_s=0.05),
        scheduler=StaticScheduler(),
        seed=0,
        counter_noise=0.0,
        record_timeseries=False,
        max_time_s=1e9,
    )
    return engine.run()


class TestBoundedWindow:
    def test_long_run_completes_with_small_window(self):
        n = 20_000
        result = run_open_loop(n)
        assert all(
            np.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )
        # The machine has 40 vcores and the offered load is ~10 jobs per
        # service time; the live window must sit at that steady state,
        # not grow with the total job count.
        assert result.info["peak_window"] < 500, result.info
        assert result.info["peak_window"] < n // 40
        assert result.info["peak_in_system"] <= result.info["peak_window"]

    def test_window_tracks_in_flight_not_total(self):
        """Doubling the horizon must not grow the window (same load)."""
        small = run_open_loop(2_000).info["peak_window"]
        large = run_open_loop(8_000).info["peak_window"]
        assert large < 2 * small + 50

    @pytest.mark.skipif(
        not os.environ.get("REPRO_TRAFFIC_BIG"),
        reason="100k-job variant is slow; set REPRO_TRAFFIC_BIG=1",
    )
    def test_100k_jobs(self):
        result = run_open_loop(100_000)
        assert result.info["peak_window"] < 500
        assert all(
            np.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )


class TestStateAccounting:
    def test_group_retirement_drains(self):
        """`completed_groups` is a hand-off queue: the engine drains it
        every quantum, so it never accumulates."""
        engine = SimulationEngine(
            topology=homogeneous(),
            groups=poisson_jobs(200, mean_gap_s=0.05),
            scheduler=StaticScheduler(),
            seed=0,
            counter_noise=0.0,
            record_timeseries=False,
            max_time_s=1e9,
        )
        result = engine.run()
        assert engine.state.completed_groups == []
        assert engine.state.n_finished == engine.state.n
        assert engine.state.all_finished()
        lo, hi = engine.state.window_bounds()
        assert lo == hi == engine.state.n  # window empty once all retired
        assert result.info["peak_in_system"] >= 1
