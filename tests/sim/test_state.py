"""Tests for `SimState`, the only thread lifecycle.

Threads are rows of the state's columns.  These tests drive one engine's
state through the engine's quantum step (`step_quantum`) and the state's
own methods: progress and completion, barrier waits and group release,
migration costs, the cached phase segment, and the run result read back
from the columns.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.schedulers.dio import DIOScheduler
from repro.schedulers.static import StaticScheduler
from repro.sim.engine import SimulationEngine, step_quantum
from repro.sim.phases import PhaseTrace, steady_trace, warmup_trace
from repro.sim.process import ProcessGroup
from repro.sim.thread import SimThread

WORK = 1e9


def make_engine(topology, n=1, barriers=(), traces=None, **kwargs) -> SimulationEngine:
    """One group of ``n`` threads, tid ``i`` placed on vcore ``i``.

    ``barriers`` is every thread's barrier fractions, or a list with one
    tuple per thread; ``traces`` likewise defaults to a steady
    ``WORK``-instruction trace per thread.
    """
    if not isinstance(barriers, list):
        barriers = [barriers] * n
    if traces is None:
        traces = [steady_trace(WORK, 1.0, 0.05, 0.3)] * n
    threads = [
        SimThread(i, "bench", 0, i, traces[i], barriers[i]) for i in range(n)
    ]
    engine = SimulationEngine(
        topology, [ProcessGroup(0, "bench", threads)], StaticScheduler(),
        counter_noise=0.0, **kwargs,
    )
    for i in range(n):
        engine.state.place(i, i)
    return engine


def step(engine, qlen, tids=None, t0=0.0):
    """One quantum of ``qlen`` seconds for ``tids`` (default: every
    runnable thread); returns ``step_quantum``'s per-thread rows."""
    st = engine.state
    idx = st.runnable_indices() if tids is None else np.asarray(tids, dtype=np.int64)
    return step_quantum((engine,), st, idx, (0, idx.size), qlen, t0)


class TestProgress:
    def test_initial_state_runnable(self, small_topology):
        st = make_engine(small_topology).state
        assert st.work_done[0] == 0.0
        assert not st.finished[0] and not st.waiting[0]
        assert math.isnan(st.finish_time[0])
        assert st.runnable_indices().tolist() == [0]

    def test_quantum_accumulates_work(self, small_topology):
        engine = make_engine(small_topology)
        work = step(engine, 0.01)[4]
        st = engine.state
        assert 0.0 < st.work_done[0] == work[0] < WORK
        step(engine, 0.01, t0=0.01)
        assert st.work_done[0] > work[0]

    def test_finishes_at_total_work(self, small_topology):
        engine = make_engine(small_topology)
        step(engine, 10.0, t0=2.0)
        st = engine.state
        assert st.finished[0] and st.all_finished()
        assert st.work_done[0] == WORK
        # The finish stamp is interpolated inside the quantum.
        assert 2.0 < st.finish_time[0] < 12.0
        assert st.runnable_indices().size == 0
        assert st.live_indices().size == 0

    def test_finished_thread_is_never_stepped(self, small_topology):
        engine = make_engine(small_topology)
        step(engine, 10.0)
        st = engine.state
        stamp = st.finish_time[0]
        step(engine, 10.0, t0=10.0)
        assert st.finish_time[0] == stamp
        assert st.work_done[0] == WORK


class TestBarriers:
    def test_stops_exactly_at_barrier(self, small_topology):
        engine = make_engine(small_topology, barriers=(0.5,))
        step(engine, 10.0)
        st = engine.state
        assert st.waiting[0] and not st.finished[0]
        assert st.work_done[0] == 0.5 * WORK
        assert st.runnable_indices().size == 0
        assert st.idle_indices().tolist() == [0]

    def test_release_resumes(self, small_topology):
        engine = make_engine(small_topology, barriers=(0.5,))
        step(engine, 10.0)
        st = engine.state
        assert st.release_ready_barriers() == 1
        assert not st.waiting[0]
        assert st.barriers_passed[0] == 1
        step(engine, 10.0, t0=10.0)
        assert st.finished[0]

    def test_next_barrier_infinite_when_exhausted(self, small_topology):
        engine = make_engine(small_topology, barriers=(0.5, 0.25))
        st = engine.state
        assert st.next_barrier[0] == 0.25 * WORK
        step(engine, 10.0)
        st.release_ready_barriers()
        assert st.next_barrier[0] == 0.5 * WORK
        step(engine, 10.0)
        st.release_ready_barriers()
        assert math.isinf(st.next_barrier[0])

    def test_no_waiters_is_noop(self, small_topology):
        engine = make_engine(small_topology, n=2, barriers=(0.5,))
        assert engine.state.release_ready_barriers() == 0
        step(engine, 0.01)
        assert engine.state.release_ready_barriers() == 0
        assert engine.state.barriers_passed.tolist() == [0, 0]

    def test_running_thread_is_not_released(self, small_topology):
        # Group 0's only thread waits at its barrier; group 1's thread still
        # runs toward its own.  The release opens group 0 and leaves the
        # running thread as it was.
        threads = [
            SimThread(g, "bench", g, 0, steady_trace(WORK, 1.0, 0.05, 0.3), (0.5,))
            for g in range(2)
        ]
        groups = [ProcessGroup(g, "bench", [threads[g]]) for g in range(2)]
        engine = SimulationEngine(
            small_topology, groups, StaticScheduler(), counter_noise=0.0
        )
        st = engine.state
        for tid in range(2):
            st.place(tid, tid)
        step(engine, 10.0, tids=[0])
        step(engine, 0.01, tids=[1])
        assert st.waiting.tolist() == [True, False]
        assert 0.0 < st.work_done[1] < 0.5 * WORK
        assert st.release_ready_barriers() == 1
        assert st.barriers_passed.tolist() == [1, 0]
        assert not st.waiting.any()
        assert st.next_barrier[1] == 0.5 * WORK

    def test_no_release_until_all_arrive(self, small_topology):
        engine = make_engine(small_topology, n=3, barriers=(0.5,))
        step(engine, 10.0, tids=[0, 1])
        st = engine.state
        assert st.waiting.tolist() == [True, True, False]
        assert st.release_ready_barriers() == 0
        assert st.waiting.tolist() == [True, True, False]
        assert st.barriers_passed.tolist() == [0, 0, 0]

    def test_release_when_all_arrive(self, small_topology):
        engine = make_engine(small_topology, n=3, barriers=(0.5,))
        step(engine, 10.0)
        st = engine.state
        assert st.waiting.all()
        assert st.release_ready_barriers() == 3
        assert not st.waiting.any()
        assert st.barriers_passed.tolist() == [1, 1, 1]

    def test_release_keys_on_barrier_index(self, small_topology):
        # Jittered siblings wait at different work positions but at the
        # same logical barrier k, and are released together.
        traces = [steady_trace(w, 1.0, 0.05, 0.3) for w in (WORK, 1.2 * WORK)]
        engine = make_engine(small_topology, n=2, barriers=(0.5,), traces=traces)
        step(engine, 10.0)
        st = engine.state
        assert st.work_done.tolist() == [0.5 * WORK, 0.6 * WORK]
        assert st.release_ready_barriers() == 2

    def test_member_at_a_later_barrier_is_not_released(self, small_topology):
        engine = make_engine(
            small_topology, n=2, barriers=[(0.25, 0.5), (0.25, 0.5)]
        )
        st = engine.state
        step(engine, 10.0)
        st.release_ready_barriers()
        # Member 0 reaches barrier 1 while member 1 still runs toward it.
        step(engine, 10.0, tids=[0])
        assert st.release_ready_barriers() == 0
        step(engine, 10.0, tids=[1])
        assert st.release_ready_barriers() == 2
        assert st.barriers_passed.tolist() == [2, 2]

    def test_finished_member_never_blocks(self, small_topology):
        # Member 0 has no barrier and finishes; member 1 waits at its
        # barrier and is released without it.
        engine = make_engine(small_topology, n=2, barriers=[(), (0.5,)])
        step(engine, 10.0)
        st = engine.state
        assert st.finished.tolist() == [True, False]
        assert st.waiting.tolist() == [False, True]
        assert st.release_ready_barriers() == 1
        step(engine, 10.0, t0=10.0)
        assert st.all_finished()


class TestCompletion:
    def test_finish_time_nan_until_all_done(self, small_topology):
        engine = make_engine(small_topology, n=2)
        step(engine, 10.0, tids=[0])
        st = engine.state
        assert st.finished.tolist() == [True, False]
        assert math.isnan(st.finish_time[1])
        assert st.group_remaining[0] == 1
        assert st.completed_groups == []

    def test_group_completes_with_slowest_thread(self, small_topology):
        engine = make_engine(small_topology, n=2)
        step(engine, 10.0, tids=[0], t0=1.0)
        step(engine, 10.0, tids=[1], t0=4.0)
        st = engine.state
        assert st.group_remaining[0] == 0
        assert st.completed_groups == [0]
        assert st.finish_time[1] > st.finish_time[0] > 1.0

    def test_finish_frees_occupancy(self, small_topology):
        engine = make_engine(small_topology, n=2)
        st = engine.state
        assert st.occupancy[:2].tolist() == [1, 1]
        step(engine, 10.0, tids=[1])
        assert st.occupancy[:2].tolist() == [1, 0]

    def test_result_reads_state_columns(self, tiny_workload, small_topology):
        groups = tiny_workload.build(seed=3, work_scale=0.01)
        engine = SimulationEngine(
            topology=small_topology, groups=groups,
            scheduler=DIOScheduler(quantum_s=0.1), seed=3, workload_name="t",
        )
        result = engine.run()
        st = engine.state
        assert result.migration_count > 0
        for g, b in zip(groups, result.benchmarks):
            tids = [t.tid for t in g.threads]
            assert b.thread_finish_times == tuple(st.finish_time[tids].tolist())
            assert b.n_migrations == int(st.n_migrations[tids].sum())
            assert b.finish_time == st.finish_time[tids].max()

    def test_truncated_run_reports_unfinished_as_inf(self, small_topology):
        engine = make_engine(small_topology, n=2, max_time_s=0.1)
        result = engine.run()
        assert result.info["truncated"]
        assert result.benchmarks[0].thread_finish_times == (math.inf, math.inf)


class TestMigration:
    def test_migrate_updates_state(self, small_topology):
        engine = make_engine(small_topology)
        st = engine.state
        st.cache_share[0] = 2.0
        st.migrate(0, 5, penalty_s=0.01, warmup=1e7)
        assert st.vcore[0] == 5
        assert st.pending_penalty[0] == pytest.approx(0.01)
        assert st.warmup_left[0] == pytest.approx(1e7)
        assert st.n_migrations[0] == 1
        assert st.occupancy[0] == 0 and st.occupancy[5] == 1
        # The LLC footprint does not travel with the thread.
        assert st.cache_share[0] == 0.0

    def test_penalties_accumulate_warmup_maxes(self, small_topology):
        engine = make_engine(small_topology)
        st = engine.state
        st.migrate(0, 1, 0.01, 1e7)
        st.migrate(0, 2, 0.01, 5e6)
        assert st.pending_penalty[0] == pytest.approx(0.02)
        assert st.warmup_left[0] == pytest.approx(1e7)
        assert st.n_migrations[0] == 2
        assert st.occupancy[:3].tolist() == [0, 0, 1]

    def test_quantum_drains_penalty_and_warmup(self, small_topology):
        engine = make_engine(small_topology)
        st = engine.state
        st.migrate(0, 1, 0.01, 0.9 * WORK)
        _, _, _, eff_time, work = step(engine, 0.1)
        # The penalty is paid once, out of this quantum; warm-up drains
        # by the work attempted.
        assert eff_time[0] == pytest.approx(0.09)
        assert st.pending_penalty[0] == 0.0
        assert st.warmup_left[0] == pytest.approx(0.9 * WORK - work[0])


def two_segment_trace() -> PhaseTrace:
    return PhaseTrace.from_columns(
        [WORK, WORK], [1.0, 2.0], [0.01, 0.02], [0.1, 0.2]
    )


class TestRefreshSegments:
    def params(self, st, tid=0):
        return (
            int(st.seg_idx[tid]), st.cpi[tid], st.api[tid],
            st.miss_ratio[tid], st.seg_end[tid],
        )

    def test_starts_in_first_segment(self, small_topology):
        st = make_engine(small_topology, traces=[two_segment_trace()]).state
        assert self.params(st) == (0, 1.0, 0.01, 0.1, WORK)

    def test_lookup_by_work(self, small_topology):
        st = make_engine(small_topology, traces=[two_segment_trace()]).state
        for work, expected in ((0.0, 0), (0.5 * WORK, 0), (1.5 * WORK, 1)):
            st.work_done[0] = work
            st.refresh_segments(np.array([0]))
            assert st.seg_idx[0] == expected

    def test_warmup_prologue_ends_at_its_fraction(self, small_topology):
        trace = warmup_trace(WORK, 1.0, 0.05, 0.3, warmup_fraction=0.1)
        st = make_engine(small_topology, traces=[trace]).state
        assert st.seg_idx[0] == 0
        assert st.seg_end[0] == pytest.approx(0.1 * WORK)
        st.work_done[0] = 0.5 * WORK
        st.refresh_segments(np.array([0]))
        assert st.seg_idx[0] == 1
        assert st.miss_ratio[0] == 0.3

    def test_thread_on_a_bound_is_in_the_next_segment(self, small_topology):
        st = make_engine(small_topology, traces=[two_segment_trace()]).state
        st.work_done[0] = WORK
        st.refresh_segments(np.array([0]))
        assert self.params(st) == (1, 2.0, 0.02, 0.2, math.inf)

    def test_past_the_end_stays_in_the_last_segment(self, small_topology):
        traces = [two_segment_trace(), steady_trace(WORK, 1.0, 0.05, 0.3)]
        st = make_engine(small_topology, n=2, traces=traces).state
        st.work_done[:] = 5 * WORK
        st.refresh_segments(np.array([0, 1]))
        assert self.params(st, 0) == (1, 2.0, 0.02, 0.2, math.inf)
        assert self.params(st, 1) == (0, 1.0, 0.05, 0.3, math.inf)

    def test_refresh_reads_each_threads_own_segments(self, small_topology):
        # Ragged segment tables: tid 1's rows follow tid 0's single row.
        traces = [steady_trace(WORK, 1.0, 0.05, 0.3), two_segment_trace()]
        st = make_engine(small_topology, n=2, traces=traces).state
        st.work_done[1] = WORK
        st.refresh_segments(np.array([1]))
        assert self.params(st, 1) == (1, 2.0, 0.02, 0.2, math.inf)
        assert self.params(st, 0) == (0, 1.0, 0.05, 0.3, math.inf)

    def test_progress_crosses_into_the_next_segment(self, small_topology):
        trace = warmup_trace(WORK, 1.0, 0.05, 0.3, warmup_fraction=0.1)
        engine = make_engine(small_topology, traces=[trace])
        st = engine.state
        assert st.miss_ratio[0] == 0.5
        t = 0.0
        while st.work_done[0] < 0.1 * WORK:
            step(engine, 0.01, t0=t)
            t += 0.01
        assert not st.finished[0]
        assert st.seg_idx[0] == 1
        assert st.miss_ratio[0] == 0.3

    def test_completion_is_in_the_last_segment(self, small_topology):
        trace = warmup_trace(WORK, 1.0, 0.05, 0.3, warmup_fraction=0.1)
        engine = make_engine(small_topology, traces=[trace])
        step(engine, 10.0)
        st = engine.state
        assert st.finished[0]
        assert st.seg_idx[0] == 1
        assert math.isinf(st.seg_end[0])
