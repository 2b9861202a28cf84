"""Persistent structure-of-arrays simulation state.

:class:`SimState` is the engine's hot-path data structure and the only
place a thread's lifecycle lives: every mutable per-thread quantity
(placement, progress, warm-up, penalties, barrier position, lifecycle
masks, finish stamps, migration counts) and every per-thread phase
parameter is a preallocated NumPy array indexed by tid.  The arrays are
updated **incrementally** — on arrivals, migrations, suspensions, barrier
waits and completions — so a quantum's physics is a handful of vectorised
operations over dense arrays.  The :class:`~repro.sim.thread.SimThread`
records it is built from are static; the run result is read from the
columns.

Phase parameters are cached per thread (``cpi``/``api``/``miss_ratio`` of
the *current* segment) together with the work position at which the cached
segment ends; the cache is refreshed only for threads that actually cross
a segment boundary, replacing a per-thread binary search per quantum with
a rare, targeted update.
"""

from __future__ import annotations

import numpy as np

from repro.sim.thread import SimThread
from repro.sim.topology import Topology

__all__ = ["SimState"]


class SimState:
    """Dense per-thread state arrays for one simulation run.

    Parameters
    ----------
    threads:
        All threads, sorted by tid (tids must be dense from 0 — the
        engine validates this).
    topology:
        The machine; only sizes and the vcore->physical map are used.
    """

    def __init__(self, threads: list[SimThread], topology: Topology) -> None:
        n = len(threads)
        self.n = n
        self.topology = topology

        # --- static per-thread data ------------------------------------
        self.total_work = np.array([t.total_work for t in threads])
        self.group_of = np.array([t.group for t in threads], dtype=np.int64)

        # Flattened per-segment tables over all traces (ragged layout:
        # thread ``i``'s segments live at ``seg_offset[i] : seg_offset[i] +
        # seg_count[i]``).
        self.seg_count = np.array(
            [t.trace.n_segments for t in threads], dtype=np.int64
        )
        self.seg_offset = np.zeros(n, dtype=np.int64)
        np.cumsum(self.seg_count[:-1], out=self.seg_offset[1:])
        self.seg_bounds = np.concatenate([t.trace.bounds for t in threads])
        self.seg_cpi = np.concatenate([t.trace.seg_cpis for t in threads])
        self.seg_api = np.concatenate([t.trace.seg_apis for t in threads])
        self.seg_miss = np.concatenate(
            [t.trace.seg_miss_ratios for t in threads]
        )

        # Barrier work positions (``fraction * total_work``), flattened
        # the same way.
        self.bar_count = np.array(
            [len(t.barrier_fractions) for t in threads], dtype=np.int64
        )
        self.bar_offset = np.zeros(n, dtype=np.int64)
        np.cumsum(self.bar_count[:-1], out=self.bar_offset[1:])
        self.bar_positions = np.array(
            [
                f * t.total_work
                for t in threads
                for f in t.barrier_fractions
            ],
            dtype=np.float64,
        )

        # Every segment as a (tid, end) pair in one complex number, which
        # NumPy orders by real part, then imaginary part: sorted, since
        # tids ascend and each trace's bounds ascend.  A segment's end is
        # its bound, +inf for a thread's last segment, which extends
        # forever.
        self._seg_key = np.empty(self.seg_bounds.size, dtype=np.complex128)
        self._seg_key.real = np.repeat(np.arange(n), self.seg_count)
        self._seg_key.imag = self.seg_bounds
        self._seg_key.imag[self.seg_offset + self.seg_count - 1] = np.inf

        # --- cached current-segment parameters -------------------------
        self.seg_idx = np.zeros(n, dtype=np.int64)
        self.cpi = self.seg_cpi[self.seg_offset].copy()
        self.api = self.seg_api[self.seg_offset].copy()
        self.miss_ratio = self.seg_miss[self.seg_offset].copy()
        #: work position at which the cached segment stops being current
        #: (+inf for the last segment)
        self.seg_end = self._seg_key.imag[self.seg_offset]

        # --- mutable state ---------------------------------------------
        self.vcore = np.full(n, -1, dtype=np.int64)
        self.work_done = np.zeros(n, dtype=np.float64)
        self.warmup_left = np.zeros(n, dtype=np.float64)
        self.pending_penalty = np.zeros(n, dtype=np.float64)
        self.finish_time = np.full(n, np.nan, dtype=np.float64)
        self.n_migrations = np.zeros(n, dtype=np.int64)
        #: LLC columns (MB), owned by the active `repro.sim.llc` backend:
        #: the derived working-set size and the currently allocated cache
        #: share.  Always allocated (so schedulers can read them without
        #: backend checks) but stay zero under the default NullLLC.
        self.working_set = np.zeros(n, dtype=np.float64)
        self.cache_share = np.zeros(n, dtype=np.float64)
        self.barriers_passed = np.zeros(n, dtype=np.int64)
        if self.bar_positions.size:
            # Clip offsets before the gather: barrier-free threads may hold
            # an offset == len(bar_positions); np.where discards the value.
            first = self.bar_positions[
                np.minimum(self.bar_offset, self.bar_positions.size - 1)
            ]
        else:
            first = np.zeros(n, dtype=np.float64)
        self.next_barrier = np.where(self.bar_count > 0, first, np.inf)
        self.arrived = np.zeros(n, dtype=bool)
        self.finished = np.zeros(n, dtype=bool)
        self.waiting = np.zeros(n, dtype=bool)
        self.suspend_left = np.zeros(n, dtype=np.int64)
        self.n_suspended = 0
        self.n_finished = 0

        #: live (placed, unfinished) threads per virtual core — maintained
        #: on place/migrate/finish so arrival placement never rescans
        self.occupancy = np.zeros(topology.n_vcores, dtype=np.int64)

        # --- live window (completed-job compaction) ---------------------
        # Open-system workloads assign tids in arrival order, so at any
        # instant the interesting threads sit in the half-open window
        # ``[_live_lo, _arrived_hi)``: everything below ``_live_lo`` is a
        # finished prefix, everything at or above ``_arrived_hi`` has not
        # arrived yet.  Per-quantum mask work scans only the window, so a
        # long-horizon run with many short-lived jobs costs per quantum
        # what its *concurrent* job count warrants, not its total.
        self._live_lo = 0
        self._arrived_hi = 0
        #: widest window ever observed (a compaction-effectiveness stat)
        self.peak_window = 0

        # tid lists per group, for barrier release
        self._group_members: dict[int, np.ndarray] = {
            int(g): np.flatnonzero(self.group_of == g)
            for g in np.unique(self.group_of)
        }
        #: unfinished-member countdown per group; a group draining to zero
        #: lands on ``completed_groups`` for the engine to emit lifecycle
        #: events from (drained every quantum, even with the bus off)
        self.group_remaining: dict[int, int] = {
            g: int(m.size) for g, m in self._group_members.items()
        }
        self.completed_groups: list[int] = []

    # ------------------------------------------------------------- masks

    def window_bounds(self) -> tuple[int, int]:
        """The current live window ``[lo, hi)`` of tids worth scanning."""
        return self._live_lo, self._arrived_hi

    def group_members(self, group: int) -> np.ndarray:
        """Tids of ``group`` (ascending)."""
        return self._group_members[group]

    def runnable_indices(self) -> np.ndarray:
        """Tids able to execute this quantum, in ascending order."""
        lo, hi = self._live_lo, self._arrived_hi
        mask = (
            self.arrived[lo:hi]
            & ~self.finished[lo:hi]
            & ~self.waiting[lo:hi]
        )
        if self.n_suspended:
            mask &= self.suspend_left[lo:hi] == 0
        return np.flatnonzero(mask) + lo

    def live_indices(self) -> np.ndarray:
        """Tids of placed, unfinished threads (runnable or not)."""
        lo, hi = self._live_lo, self._arrived_hi
        mask = self.arrived[lo:hi] & ~self.finished[lo:hi]
        return np.flatnonzero(mask) + lo

    def idle_indices(self) -> np.ndarray:
        """Live threads pinned this quantum (barrier wait or suspension)."""
        lo, hi = self._live_lo, self._arrived_hi
        mask = (
            self.arrived[lo:hi]
            & ~self.finished[lo:hi]
            & (self.waiting[lo:hi] | (self.suspend_left[lo:hi] > 0))
        )
        return np.flatnonzero(mask) + lo

    def all_finished(self) -> bool:
        return self.n_finished == self.n

    # --------------------------------------------------------- placement

    def place(self, tid: int, vcore: int) -> None:
        """Initial or arrival placement of an unplaced thread."""
        self.vcore[tid] = vcore
        self.arrived[tid] = True
        self.occupancy[vcore] += 1
        if tid + 1 > self._arrived_hi:
            self._arrived_hi = tid + 1
            width = self._arrived_hi - self._live_lo
            if width > self.peak_window:
                self.peak_window = width

    def migrate(self, tid: int, vcore: int, penalty_s: float, warmup: float) -> None:
        """Move a live thread, paying the context-switch + warm-up cost."""
        old = self.vcore[tid]
        if old >= 0 and not self.finished[tid]:
            self.occupancy[old] -= 1
        self.vcore[tid] = vcore
        if not self.finished[tid]:
            self.occupancy[vcore] += 1
        self.pending_penalty[tid] += penalty_s
        self.warmup_left[tid] = max(self.warmup_left[tid], warmup)
        self.n_migrations[tid] += 1
        # The LLC footprint does not travel with the thread: the share
        # re-warms from zero in the destination cache (see repro.sim.llc).
        self.cache_share[tid] = 0.0

    # -------------------------------------------------------- suspension

    def suspend(self, tid: int, quanta: int) -> None:
        if self.suspend_left[tid] == 0:
            self.n_suspended += 1
        self.suspend_left[tid] = max(self.suspend_left[tid], quanta)

    def tick_suspensions(self) -> None:
        """Count one quantum off every active suspension."""
        if not self.n_suspended:
            return
        active = self.suspend_left > 0
        self.suspend_left[active] -= 1
        self.n_suspended = int(np.count_nonzero(self.suspend_left))

    # ---------------------------------------------------------- progress

    def finish(self, tids: np.ndarray, now: np.ndarray) -> None:
        """Retire threads ``tids`` (ascending), which reached their total
        work this quantum, with finish stamps ``now``.

        Progress itself — work accrual, barrier waits, the clamp to total
        work — is columnar and done by the engine's quantum step
        (`repro.sim.engine.step_quantum`); this is the bookkeeping around
        a completion: occupancy, group countdowns and the live window.
        """
        self.finished[tids] = True
        self.finish_time[tids] = now
        # A finished thread releases its LLC share immediately.
        self.cache_share[tids] = 0.0
        self.working_set[tids] = 0.0
        np.subtract.at(self.occupancy, self.vcore[tids], 1)
        self.n_finished += int(tids.size)
        for tid in tids.tolist():
            g = int(self.group_of[tid])
            left = self.group_remaining[g] - 1
            self.group_remaining[g] = left
            if left == 0:
                self.completed_groups.append(g)
        # Advance the window over the newly finished prefix.
        lo, finished = self._live_lo, self.finished
        while lo < self.n and finished[lo]:
            lo += 1
        self._live_lo = lo

    def refresh_segments(self, tids: np.ndarray) -> None:
        """Re-resolve the cached phase segment of threads ``tids``, which
        crossed their segment boundary.

        A thread's segment is the count of its bounds at or below its
        work (clamped just below its total work), capped at its last
        segment: a thread exactly on a segment's end is in the next
        segment, and one at or past its total work stays in the last
        segment, which has no end (``seg_end`` is +inf).  One
        ``searchsorted`` over the ``(tid, end)`` pairs resolves every tid
        at once: the pairs at or below ``(tid, work)`` are the thread's
        segment offset plus its segment index, and the last segment's
        +inf end is the cap.
        """
        work = np.minimum(self.work_done[tids], self.total_work[tids] - 1e-9)
        seg = np.searchsorted(self._seg_key, tids + 1j * work, side="right")
        self.seg_idx[tids] = seg - self.seg_offset[tids]
        self.cpi[tids] = self.seg_cpi[seg]
        self.api[tids] = self.seg_api[seg]
        self.miss_ratio[tids] = self.seg_miss[seg]
        self.seg_end[tids] = self._seg_key.imag[seg]

    # ----------------------------------------------------------- barriers

    def release_ready_barriers(self) -> int:
        """Release every group barrier at which all live members wait.

        A group's barrier ``k`` (the smallest index among waiters) opens
        once every unfinished member is waiting at index >= ``k``; members
        at exactly ``k`` pass.  A finished member implicitly passed every
        barrier, so it never blocks its group.  The check keys on the
        barrier *index*, so members whose barrier work positions differ
        (per-thread jitter) still synchronise on logical barrier ``k``.
        Returns the number of threads released.
        """
        lo, hi = self._live_lo, self._arrived_hi
        waiting_ids = np.flatnonzero(self.waiting[lo:hi]) + lo
        if waiting_ids.size == 0:
            return 0
        released = 0
        # Only groups with at least one waiter can release — with many
        # finished or unarrived groups this visits a handful, not all.
        for g in np.unique(self.group_of[waiting_ids]).tolist():
            members = self._group_members[int(g)]
            waiting = members[self.waiting[members]]
            k = self.barriers_passed[waiting].min()
            unfinished = members[~self.finished[members]]
            if not (
                self.waiting[unfinished].all()
                and (self.barriers_passed[unfinished] >= k).all()
            ):
                continue
            rel = unfinished[self.barriers_passed[unfinished] == k]
            self.barriers_passed[rel] += 1
            self.waiting[rel] = False
            passed = self.barriers_passed[rel]
            has_more = passed < self.bar_count[rel]
            nxt = np.full(rel.size, np.inf)
            more = rel[has_more]
            if more.size:
                nxt[has_more] = self.bar_positions[
                    self.bar_offset[more] + self.barriers_passed[more]
                ]
            self.next_barrier[rel] = nxt
            released += int(rel.size)
        return released
