"""The quantum-level simulation engine.

:class:`SimulationEngine` advances a set of benchmark process groups over a
shared heterogeneous machine in discrete scheduling quanta.  Per quantum it

1. asks the scheduler for the quantum length,
2. gathers each runnable thread's phase parameters (with post-migration
   cache warm-up applied),
3. computes cycle rates after SMT sharing (`repro.sim.smt`),
4. resolves effective miss ratios through the LLC model, if one is active,
5. solves the memory contention fixed point (`repro.sim.memory`) to get
   achieved access rates and instruction rates,
6. advances thread progress (honouring barriers and migration penalties),
   stamping sub-quantum-accurate finish times,
7. emits a :class:`~repro.sim.counters.QuantumCounters` sample (with
   optional measurement noise) to the scheduler,
8. applies the scheduler's migration actions with their costs.

Steps 2–6 are :func:`step_quantum`, the one implementation of the
machine model.  It steps any number of independent runs ("lanes") at
once: this engine runs it over its own state as a single lane, and the
batched engine (`repro.sim.batch`) over many lanes' stacked state.
Steps 1 and 7–8 are the engine's per-lane methods, shared the same way.

All mutable per-thread state lives in a persistent structure-of-arrays
:class:`~repro.sim.state.SimState` that is updated incrementally — on
arrivals, migrations, barrier waits, suspensions and completions — so a
quantum is a fixed set of vectorised array operations with no per-thread
Python object traffic.  Actions address threads by tid, which *is* the
array index, so applying them needs no lookup table at all.  When neither
the trace recorder nor the event bus is active, the quantum loop also
skips building the per-quantum assignment and access-rate dictionaries
(the zero-observer fast path), and a scheduler whose ``decide`` is gated
(`repro.schedulers.base.gated`) gets neither a counter window nor a
call on quanta where it cannot act.  The state is the only thread
lifecycle: the :class:`~repro.sim.thread.SimThread` records are static,
and the result's finish times and migration counts are read from its
columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs.events import (
    ArrivalPlaced,
    CacheShareUpdated,
    EventBus,
    JobCompleted,
    NULL_BUS,
    QuantumEnd,
    QuantumStart,
    SwapExecuted,
)
from repro.obs.metrics import timed
from repro.schedulers.base import (
    Action,
    Move,
    Scheduler,
    SchedulingContext,
    Suspend,
    Swap,
    ThreadInfo,
)
from repro.sim.counters import QuantumCounters
from repro.sim.llc import LLCModel, make_llc
from repro.sim.memory import MemoryModelConfig, MemorySystem
from repro.sim.migration import MigrationModel
from repro.sim.process import ProcessGroup
from repro.sim.results import BenchmarkResult, RunResult
from repro.sim.smt import SMT_STALL_BONUS, smt_cycle_rates
from repro.sim.state import SimState
from repro.sim.thread import SimThread
from repro.sim.topology import Topology
from repro.sim.trace import SwapEvent, TraceRecorder
from repro.util.rng import make_rng
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    require,
)

__all__ = ["SimulationEngine", "step_quantum"]


def step_quantum(
    lanes: Sequence["SimulationEngine"],
    st,
    idx: np.ndarray,
    bounds: Sequence[int],
    qlen: float | np.ndarray,
    t0: float | np.ndarray,
    offsets: Sequence[int] = (0,),
    lane_of: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance the runnable threads ``idx`` of every lane by one quantum.

    ``st`` holds the per-thread columns ``idx`` indexes: one lane's
    :class:`SimState`, or the stacked state of a batch, where lane ``r``
    owns columns ``offsets[r]:offsets[r + 1]`` and the runnable threads
    ``idx[bounds[r]:bounds[r + 1]]``.  ``lane_of`` gives each runnable
    thread's lane (``None``: one lane).  ``qlen`` and ``t0`` are the
    quantum length and start time — floats for one lane, per-thread
    arrays for several.  The lanes share one machine (topology, memory
    constants, SMT efficiency, warm-up scale; see
    `repro.sim.batch.batch_compatible`).

    Every elementwise step is the same for any number of lanes, and every
    reduction (SMT bincounts, the memory fixed point, LLC occupancy) runs
    per lane over its contiguous slice in thread order, so a lane's bits
    do not depend on which lanes it is stepped with.

    Returns ``(vcore_of, api, access_rate, eff_time, work)`` per runnable
    thread, for the lanes' counter windows.
    """
    if not idx.size:
        empty = np.zeros(0)
        return idx, empty, empty, empty, empty
    first = lanes[0]
    topo = first.topology
    base_stall = first.memory.config.base_miss_stall_cycles
    vcore_of = st.vcore[idx]
    cpi = st.cpi[idx]
    api = st.api[idx]
    miss_ratio = st.miss_ratio[idx]
    warmup_left = st.warmup_left[idx]

    # Memory-stall fraction at the uncontended stall cost, used by the SMT
    # model (a stalled sibling frees issue slots).
    mpi0 = api * miss_ratio
    stall_frac = (mpi0 * base_stall) / (cpi + mpi0 * base_stall)
    cycle_rate = smt_cycle_rates(
        vcore_of,
        topo.vcore_physical,
        topo.vcore_freq_hz,
        first.smt_efficiency,
        stall_fraction=stall_frac,
        n_physical=topo.n_physical_cores,
        lane_of=lane_of,
        n_lanes=len(lanes),
    )

    # Post-migration cache warm-up: the miss-ratio inflation only covers
    # `warmup_work` instructions, so scale it by the warm-up fraction of
    # this quantum's expected work (estimated at the uncontended rate) — a
    # thread mid-warm-up pays fully, a thread with a sliver left pays a
    # sliver, and one with none is unchanged (scale 1).
    if warmup_left.any():
        expected = cycle_rate / (cpi + api * miss_ratio * base_stall) * qlen
        frac = np.clip(warmup_left / np.maximum(expected, 1.0), 0.0, 1.0)
        scale = 1.0 + (first.migration.warmup_miss_scale - 1.0) * frac
        miss_ratio = np.minimum(miss_ratio * scale, 1.0)
    socket_of = topo.vcore_socket[vcore_of]
    # Each lane's LLC resolves its threads' cache shares first; the
    # bandwidth allocator then consumes the *effective* miss ratios
    # occupancy implies.
    for r, lane in enumerate(lanes):
        if lane._llc_active and bounds[r + 1] > bounds[r]:
            seg = slice(bounds[r], bounds[r + 1])
            miss_ratio[seg] = lane._resolve_llc(
                idx[seg] - offsets[r], miss_ratio[seg], socket_of[seg]
            )
    mpi = api * miss_ratio
    access_rate, ips = first.memory.solve(
        cycle_rate, cpi, mpi, socket_of, bounds, [lane.memory for lane in lanes]
    )

    penalties = st.pending_penalty[idx]
    eff_time = np.maximum(qlen - penalties, 0.0)
    work = ips * eff_time

    # Progress.  Barrier waits and accrued work are columns of `st`;
    # completions also go through their lane's SimState.finish (groups,
    # live window, occupancy).  A thread reaching its next barrier stops
    # *at* the barrier and waits; otherwise it completes once it reaches
    # its total work.
    done_work = st.work_done[idx]
    target = done_work + work
    barrier = st.next_barrier[idx]
    total = st.total_work[idx]
    hit = target >= barrier
    if hit.any():
        st.waiting[idx[hit]] = True
        target = np.where(hit, barrier, target)
    done = (target >= total) & ~hit
    if done.any():
        # Sub-quantum-accurate finish stamps: where this quantum's work
        # overshoots the remaining work (and no barrier intervenes),
        # interpolate the finish time inside the quantum.
        remaining = np.maximum(total - done_work, 0.0)
        interp = (
            (work >= remaining)
            & (remaining > 0.0)
            & (ips > 0.0)
            & (barrier >= total)
        )
        now = np.full(idx.size, t0 + qlen)
        if interp.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                finish_at = t0 + penalties + remaining / ips
            now = np.where(interp, finish_at, now)
        target = np.where(done, total, target)
        for r, pos in _lanes_where(done, bounds, lane_of):
            lanes[r].state.finish(idx[pos] - offsets[r], now[pos])
    st.work_done[idx] = target
    # Warm-up drains by attempted work; one-shot penalties are paid.
    st.warmup_left[idx] = np.maximum(warmup_left - work, 0.0)
    st.pending_penalty[idx] = 0.0
    # Re-resolve cached phase segments where a boundary was crossed.
    crossed = target >= st.seg_end[idx]
    if crossed.any():
        for r, pos in _lanes_where(crossed, bounds, lane_of):
            lanes[r].state.refresh_segments(idx[pos] - offsets[r])
    return vcore_of, api, access_rate, eff_time, work


def _lanes_where(mask: np.ndarray, bounds: Sequence[int], lane_of):
    """``(lane, positions)`` for every lane with a True entry in ``mask``."""
    rows = [0] if lane_of is None else np.unique(lane_of[mask]).tolist()
    for r in rows:
        yield r, np.flatnonzero(mask[bounds[r] : bounds[r + 1]]) + bounds[r]


class SimulationEngine:
    """Simulate one workload under one scheduling policy.

    Parameters
    ----------
    topology:
        The machine.
    groups:
        Benchmark process groups (threads must carry dense, unique tids
        starting at 0).
    scheduler:
        The policy under test.
    migration:
        Migration cost model.
    memory_config:
        Physical constants of the contention model.
    smt_efficiency:
        Per-thread throughput fraction under SMT sharing, in
        ``[0.1, 0.75]`` (a stalled sibling can give back up to
        ``SMT_STALL_BONUS`` = 0.25 more).
    seed:
        Seed for measurement noise (and handed to the scheduler context).
    counter_noise:
        Relative std-dev of multiplicative noise on reported counter rates
        (0 disables).  Physics is never noisy — only the scheduler's view,
        like real perf sampling.
    max_time_s:
        Safety horizon; the run aborts (with the result flagged) if any
        thread is still unfinished at this simulated time.
    record_timeseries:
        Keep full per-quantum traces (needed by Figures 1/8, disabled for
        big sweeps).
    llc:
        Memory-hierarchy backend (`repro.sim.llc`): ``None`` or
        ``"null"`` for the pass-through default (phase miss ratios used
        verbatim — byte-identical to the pre-LLC engine), ``"occupancy"``
        (or an :class:`~repro.sim.llc.LLCModel` instance) to resolve
        effective miss ratios through a shared-LLC occupancy model
        before the bandwidth allocator runs.
    bus:
        Observability event bus (`repro.obs`).  The default is the shared
        no-op bus: with no sinks attached the engine never constructs
        event objects, so uninstrumented runs pay nothing.
    """

    def __init__(
        self,
        topology: Topology,
        groups: Sequence[ProcessGroup],
        scheduler: Scheduler,
        migration: MigrationModel | None = None,
        memory_config: MemoryModelConfig | None = None,
        smt_efficiency: float = 0.70,
        seed: int = 0,
        counter_noise: float = 0.06,
        max_time_s: float = 36_000.0,
        record_timeseries: bool = True,
        workload_name: str = "workload",
        llc: LLCModel | str | None = None,
        bus: EventBus | None = None,
    ) -> None:
        require(len(groups) >= 1, "at least one process group is required")
        # The SMT model gives a stalled sibling's share back on top of the
        # base share (`repro.sim.smt`), so the two must fit in one core.
        check_in_range(
            smt_efficiency, 0.1, 1.0 - SMT_STALL_BONUS + 1e-9, "smt_efficiency"
        )
        self.topology = topology
        self.groups = list(groups)
        self.scheduler = scheduler
        self.migration = migration or MigrationModel()
        self.memory = MemorySystem(
            topology.socket_interconnect_rate,
            topology.memory_controller_rate,
            memory_config,
        )
        self.smt_efficiency = smt_efficiency
        self.seed = int(seed)
        self.counter_noise = check_non_negative(counter_noise, "counter_noise")
        self.max_time_s = check_positive(max_time_s, "max_time_s")
        self.workload_name = workload_name

        self.threads: list[SimThread] = [t for g in self.groups for t in g.threads]
        self.threads.sort(key=lambda t: t.tid)
        tids = [t.tid for t in self.threads]
        require(tids == list(range(len(tids))), "thread ids must be dense from 0")

        self.bus = bus if bus is not None else NULL_BUS
        self.metrics = self.bus.metrics
        self.memory.metrics = self.metrics
        self.trace = TraceRecorder(record_timeseries=record_timeseries)
        self._noise_rng = make_rng(self.seed, "engine", "counter-noise")
        #: the persistent structure-of-arrays state — the single source of
        #: truth for all mutable per-thread quantities during the run
        self.state = SimState(self.threads, topology)
        self.llc = make_llc(llc)
        #: cached flag so the NullLLC hot path costs one bool check
        self._llc_active = self.llc.active
        if self._llc_active:
            self.llc.bind(self.state, topology)
        self.time_s = 0.0
        self.quantum_index = 0
        self.migration_count = 0
        self.swap_count = 0
        self.suspension_count = 0
        self.truncated = False

        self._group_by_id = {g.group_id: g for g in self.groups}
        #: future arrivals sorted by arrival time (stable, so groups with
        #: equal arrivals keep workload order); consumed by a pointer so
        #: arrival handling never rescans the full group list.
        self._arrival_queue = sorted(
            (g for g in self.groups if g.arrival_s > 0.0),
            key=lambda g: g.arrival_s,
        )
        self._next_arrival = 0
        #: jobs in system (arrived, not yet finished) — the queue depth
        #: stamped into lifecycle events
        self._in_system = 0
        self._peak_in_system = 0

    # ------------------------------------------------------------------ setup

    def _make_context(self) -> SchedulingContext:
        infos = tuple(
            ThreadInfo(t.tid, t.benchmark, t.group, t.member) for t in self.threads
        )
        return SchedulingContext(
            topology=self.topology, threads=infos, seed=self.seed, bus=self.bus
        )

    def _apply_initial_placement(self) -> None:
        placement = self.scheduler.initial_placement()
        initial = [
            t for g in self.groups if g.arrival_s <= 0.0 for t in g.threads
        ]
        require(
            {t.tid for t in initial} <= set(placement),
            "initial placement must cover every thread present at t=0",
        )
        for t in initial:
            vcore = placement[t.tid]
            require(
                0 <= vcore < self.topology.n_vcores,
                f"placement of tid {t.tid} onto invalid vcore {vcore}",
            )
            self.state.place(t.tid, vcore)

    def _place_arrivals(self) -> None:
        """Wake newly arrived groups onto the least-crowded cores.

        Mirrors OS wake-time placement: prefer completely idle physical
        cores (fastest first), then idle virtual cores, then the least
        loaded virtual cores.  The scheduler takes over from the next
        quantum boundary.  Per-vcore occupancy is maintained incrementally
        by :class:`SimState` (on place/migrate/finish), and pending
        arrivals are consumed from a sorted queue, so arrival handling
        never rescans the thread or group population.

        **Rounding rule.**  The engine is quantum-discrete, so a group
        whose arrival time falls strictly inside a quantum ``(t_k,
        t_{k+1}]`` wakes at the *end* boundary ``t_{k+1}`` — arrivals
        round up (ceil) to the next boundary, and the placement delay
        ``wait_s = t_{k+1} − arrival_s`` is in ``[0, quantum_length)``.
        A group arriving exactly on a boundary is placed at that boundary
        with zero wait.  The rounding delay is *observable* (``wait_s``
        on the v2 ``arrival_placed`` event) but not simulated as queueing:
        the thread simply does not exist until the boundary.
        """
        queue = self._arrival_queue
        i = self._next_arrival
        n_queue = len(queue)
        if i >= n_queue or queue[i].arrival_s > self.time_s:
            return
        arrivals = []
        while i < n_queue and queue[i].arrival_s <= self.time_s:
            arrivals.append(queue[i])
            i += 1
        self._next_arrival = i
        # Place in workload (group id) order: groups released by the same
        # boundary wake in the order the workload lists them, independent
        # of arrival-time sorting.
        arrivals.sort(key=lambda g: g.group_id)
        occupied = self.state.occupancy  # updated in place by state.place()
        phys_load = np.zeros(self.topology.n_physical_cores, dtype=np.int64)
        np.add.at(phys_load, self.topology.vcore_physical, occupied)

        def placement_key(vc) -> tuple:
            return (
                int(occupied[vc.vcore_id]),              # idle vcores first
                int(phys_load[vc.physical_id]),          # idle phys cores first
                -vc.freq_hz,                             # fastest first
                vc.vcore_id,
            )

        for g in arrivals:
            for t in g.threads:
                target = min(self.topology.vcores, key=placement_key)
                self.state.place(t.tid, target.vcore_id)
                phys_load[target.physical_id] += 1
            self._in_system += 1
            if self._in_system > self._peak_in_system:
                self._peak_in_system = self._in_system
            if self.bus.enabled:
                self.bus.emit(
                    ArrivalPlaced(
                        quantum=max(self.quantum_index - 1, 0),
                        time_s=self.time_s,
                        group=g.group_id,
                        tids=tuple(t.tid for t in g.threads),
                        vcores=tuple(
                            int(self.state.vcore[t.tid]) for t in g.threads
                        ),
                        arrival_s=g.arrival_s,
                        wait_s=self.time_s - g.arrival_s,
                        queue_depth=self._in_system,
                    )
                )

    def _drain_completed(self) -> None:
        """Retire groups whose last thread finished this quantum.

        Always runs (the in-system counter feeds arrival queue depths even
        with the bus off); with sinks attached each retirement emits a
        ``job_completed`` event stamped with the group's latency and the
        queue depth *after* it left.
        """
        completed = self.state.completed_groups
        if not completed:
            return
        for gid in completed:
            self._in_system -= 1
            if self.bus.enabled:
                g = self._group_by_id[gid]
                members = self.state.group_members(gid)
                finish = float(np.max(self.state.finish_time[members]))
                self.bus.emit(
                    JobCompleted(
                        quantum=self.quantum_index,
                        time_s=self.time_s,
                        group=gid,
                        benchmark=g.benchmark,
                        n_threads=int(members.size),
                        arrival_s=g.arrival_s,
                        latency_s=finish - g.arrival_s,
                        queue_depth=self._in_system,
                    )
                )
        completed.clear()

    # ------------------------------------------------------------- main loop

    def _start(self) -> None:
        """Run preamble: prepare the scheduler, place the t=0 population.

        Split out of :meth:`run`, like the other per-lane steps below, so
        the batched engine (`repro.sim.batch`) runs the exact same code
        per lane around its shared :func:`step_quantum`.
        """
        self.scheduler.prepare(self._make_context())
        self._apply_initial_placement()
        self._decide_gate = self.scheduler.decide_gate()

        self._in_system = sum(g.arrival_s <= 0.0 for g in self.groups)
        self._peak_in_system = self._in_system

    def run(self) -> RunResult:
        """Execute the simulation to completion and return the result."""
        self._start()
        gate = self._decide_gate
        while self._running():
            counters = self._execute_quantum(self._quantum_length())
            if gate is None or gate(self.topology, self.state.occupancy[None])[0]:
                self._decide(counters)
        return self._build_result()

    @timed("engine.quantum_s")
    def _execute_quantum(self, qlen: float) -> QuantumCounters | None:
        live_idx = self._begin_quantum(qlen)
        idx = self.state.runnable_indices()
        rows = step_quantum((self,), self.state, idx, (0, idx.size), qlen, self.time_s)
        return self._end_quantum(qlen, live_idx, idx, *rows)

    # ------------------------------------------------------ per-lane steps

    def _running(self) -> bool:
        """Loop head: False once every thread finished or the time
        horizon is reached (which flags the run as truncated)."""
        if self.state.all_finished():
            return False
        if self.time_s >= self.max_time_s:
            self.truncated = True
            return False
        return True

    def _quantum_length(self) -> float:
        qlen = float(self.scheduler.quantum_length_s())
        require(qlen > 0.0, f"scheduler returned non-positive quantum {qlen}")
        return qlen

    def _begin_quantum(self, qlen: float) -> np.ndarray | None:
        """Quantum prologue; returns the live tids when observing.

        The observer's view covers every thread alive at quantum *start*
        (threads finishing mid-quantum still appear in its last sample),
        so the live set is snapshot before progress is applied.  Skipped
        (``None``) on the zero-observer fast path.
        """
        if self.bus.enabled:
            self.bus.at(self.quantum_index, self.time_s)
            self.bus.emit(
                QuantumStart(
                    quantum=self.quantum_index,
                    time_s=self.time_s,
                    quantum_length_s=qlen,
                )
            )
        if self.trace.record_timeseries or self.bus.enabled:
            return self.state.live_indices()
        return None

    def _resolve_llc(
        self, idx: np.ndarray, miss_ratio: np.ndarray, socket_of: np.ndarray
    ) -> np.ndarray:
        """The LLC's effective miss ratios for this lane's runnable tids."""
        st = self.state
        miss_ratio = self.llc.resolve(st, idx, miss_ratio, socket_of)
        if self.bus.enabled:
            self.bus.emit(
                CacheShareUpdated(
                    quantum=self.quantum_index,
                    time_s=self.time_s,
                    shares=dict(zip(idx.tolist(), st.cache_share[idx].tolist())),
                    working_sets=dict(
                        zip(idx.tolist(), st.working_set[idx].tolist())
                    ),
                )
            )
        return miss_ratio

    def _end_quantum(
        self,
        qlen: float,
        live_idx: np.ndarray | None,
        idx: np.ndarray,
        vcore_of: np.ndarray,
        api: np.ndarray,
        access_rate: np.ndarray,
        eff_time: np.ndarray,
        work: np.ndarray,
    ) -> QuantumCounters | None:
        """Quantum tail, after :func:`step_quantum` moved this lane's
        runnable tids ``idx``: the counter window (when a scheduler or an
        observer reads it), suspensions, the clock, completions, the
        trace and ``quantum_end``, then barrier release and arrivals."""
        st = self.state
        counters = None
        if live_idx is not None or self._decide_gate is None:
            counters = self._quantum_counters(
                qlen, idx, vcore_of, work, eff_time, access_rate, api
            )

        # Tick down suspensions at the quantum boundary.
        st.tick_suspensions()

        self.time_s += qlen
        self._drain_completed()
        if live_idx is not None:
            assignments = dict(zip(live_idx.tolist(), st.vcore[live_idx].tolist()))
            access_rates = counters.access_rates()
            self.trace.record_quantum(
                self.time_s,
                qlen,
                self.memory.last_utilization,
                access_rates,
                assignments,
            )
            if self.bus.enabled:
                self.bus.emit(
                    QuantumEnd(
                        quantum=self.quantum_index,
                        time_s=self.time_s,
                        assignments=assignments,
                        access_rates=access_rates,
                    )
                )
        self.quantum_index += 1
        st.release_ready_barriers()
        # Groups whose arrival time passed during the quantum wake now,
        # before the scheduler decides, so it sees them placed.
        self._place_arrivals()
        return counters

    def _decide(self, counters: QuantumCounters | None) -> None:
        placement = self.state.live_placement()
        if placement:
            self._apply_actions(self.scheduler.decide(counters, placement), placement)

    def _quantum_counters(
        self,
        qlen: float,
        idx: np.ndarray,
        vcore_of: np.ndarray,
        work: np.ndarray,
        eff_time: np.ndarray,
        access_rate: np.ndarray,
        api: np.ndarray,
    ) -> QuantumCounters:
        """The scheduler's counter window for the quantum just simulated.

        One row per runnable thread ``idx`` (the other arrays are aligned
        with it), its misses scaled by this engine's measurement noise;
        then one zero row per barrier-waiting or suspended thread — a real
        perf window shows them idle, and schedulers must cope.  A thread
        that hit a barrier this quantum gets both rows.  Called after
        progress is applied and before suspensions tick.
        """
        st = self.state
        if self.counter_noise > 0.0 and idx.size:
            noise = np.clip(
                self._noise_rng.normal(1.0, self.counter_noise, size=idx.size),
                0.5,
                1.5,
            )
        else:
            noise = np.ones(idx.size)
        core_bw = np.bincount(
            vcore_of, weights=access_rate, minlength=self.topology.n_vcores
        ).astype(np.float64, copy=False)  # an empty bincount is int64
        idle = st.idle_indices()
        zeros = np.zeros(idle.size)
        return QuantumCounters.from_columns(
            self.quantum_index,
            self.time_s + qlen,
            qlen,
            core_bw,
            tid=np.concatenate((idx, idle)),
            vcore=np.concatenate((vcore_of, st.vcore[idle])),
            instructions=np.concatenate((work, zeros)),
            llc_accesses=np.concatenate((api * work, zeros)),
            llc_misses=np.concatenate((access_rate * eff_time * noise, zeros)),
            runtime_s=np.concatenate(
                (np.where(eff_time > 0, eff_time, qlen), np.full(idle.size, qlen))
            ),
            cache_mb=np.concatenate((st.cache_share[idx], zeros)),
        )

    # --------------------------------------------------------------- actions

    @timed("engine.apply_actions_s")
    def _apply_actions(
        self, actions: Sequence[Action], placement: dict[int, int]
    ) -> None:
        st = self.state
        n = st.n
        touched: set[int] = set()
        for action in actions:
            if isinstance(action, Swap):
                a, b = action.tid_a, action.tid_b
                require(
                    0 <= a < n and 0 <= b < n,
                    f"swap references unknown thread: {action}",
                )
                require(
                    not st.finished[a] and not st.finished[b],
                    f"swap references finished thread: {action}",
                )
                require(
                    a not in touched and b not in touched,
                    f"thread migrated twice in one quantum: {action}",
                )
                va = int(st.vcore[a])
                vb = int(st.vcore[b])
                st.migrate(
                    a, vb, self.migration.swap_overhead_s, self.migration.warmup_work
                )
                st.migrate(
                    b, va, self.migration.swap_overhead_s, self.migration.warmup_work
                )
                touched.update((a, b))
                self.migration_count += 2
                self.swap_count += 1
                self.trace.record_swap(
                    SwapEvent(
                        time_s=self.time_s,
                        quantum_index=self.quantum_index - 1,
                        tid_a=a,
                        tid_b=b,
                        vcore_a=vb,
                        vcore_b=va,
                    )
                )
                if self.bus.enabled:
                    self.bus.emit(
                        SwapExecuted(
                            quantum=self.quantum_index - 1,
                            time_s=self.time_s,
                            tid_a=a,
                            tid_b=b,
                            vcore_a=vb,
                            vcore_b=va,
                        )
                    )
            elif isinstance(action, Move):
                tid = action.tid
                require(
                    0 <= tid < n, f"move references unknown thread: {action}"
                )
                require(
                    not st.finished[tid],
                    f"move references finished thread: {action}",
                )
                require(
                    0 <= action.vcore < self.topology.n_vcores,
                    f"move to invalid vcore: {action}",
                )
                require(
                    tid not in touched,
                    f"thread migrated twice in one quantum: {action}",
                )
                if action.vcore != st.vcore[tid]:
                    st.migrate(
                        tid,
                        action.vcore,
                        self.migration.swap_overhead_s,
                        self.migration.warmup_work,
                    )
                    touched.add(tid)
                    self.migration_count += 1
            elif isinstance(action, Suspend):
                tid = action.tid
                require(
                    0 <= tid < n, f"suspend references unknown thread: {action}"
                )
                require(
                    not st.finished[tid],
                    f"suspend references finished thread: {action}",
                )
                st.suspend(tid, action.quanta)
                self.suspension_count += 1
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown action type: {action!r}")

    # ---------------------------------------------------------------- result

    def _build_result(self) -> RunResult:
        """Run epilogue: the result, read from the state columns."""
        st = self.state
        # An unfinished thread (truncated run) never finishes: +inf.
        finish = np.where(st.finished, st.finish_time, np.inf).tolist()
        migrations = st.n_migrations.tolist()
        benchmarks = []
        for g in self.groups:
            tids = [t.tid for t in g.threads]
            benchmarks.append(
                BenchmarkResult(
                    group_id=g.group_id,
                    benchmark=g.benchmark,
                    thread_finish_times=tuple(finish[t] for t in tids),
                    n_migrations=sum(migrations[t] for t in tids),
                    arrival_s=g.arrival_s,
                )
            )
        makespan = max(
            (b.finish_time for b in benchmarks), default=float("nan")
        )
        info = dict(self.scheduler.describe())
        info["truncated"] = self.truncated
        info["suspension_count"] = self.suspension_count
        info["smt_efficiency"] = self.smt_efficiency
        info["peak_in_system"] = self._peak_in_system
        info["peak_window"] = self.state.peak_window
        if self._llc_active:
            info["llc"] = self.llc.describe()
        if self.metrics is not None:
            self.metrics.counter("engine.quanta").inc(self.quantum_index)
            self.metrics.counter("engine.swaps").inc(self.swap_count)
            self.metrics.counter("engine.migrations").inc(self.migration_count)
            self.metrics.counter("engine.suspensions").inc(self.suspension_count)
            info["metrics"] = self.metrics.snapshot()
        return RunResult(
            workload_name=self.workload_name,
            policy_name=self.scheduler.name,
            seed=self.seed,
            makespan_s=float(makespan),
            n_quanta=self.quantum_index,
            benchmarks=tuple(benchmarks),
            swap_count=self.swap_count,
            migration_count=self.migration_count,
            predictions=self.scheduler.drain_prediction_records(),
            trace=self.trace,
            info=info,
        )
