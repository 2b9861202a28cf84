"""Batched multi-run engine: N independent runs stepped in lockstep.

Campaign grids (seed sweeps, figure grids, policy matrices) execute many
*independent* simulations whose dominant cost — after the SoA ``SimState``
rework — is per-run Python stepping: every run pays the same ~30 NumPy
dispatch overheads per quantum regardless of thread count.  This module
amortises that overhead across runs: a :class:`BatchEngine` holds N
complete :class:`~repro.sim.engine.SimulationEngine` instances ("lanes")
and advances them **one quantum per iteration through shared flat
kernels**, so the per-quantum physics (gathers, SMT sharing, the memory
fixed point, progress updates) is paid once per batch instead of once per
run.

Design
------
* **Lanes stay real engines.**  Setup (scheduler prepare + initial
  placement), arrivals, barrier release, action application, lifecycle
  events and result building all run through each lane's own
  ``SimulationEngine`` code.  Only the quantum physics is replaced.
* **Flat-ragged state.**  :class:`BatchSimState` concatenates the per-tid
  columns of every lane's :class:`~repro.sim.state.SimState` into shared
  flat arrays and *rebinds* each lane's columns to contiguous views of
  them.  ``SimState`` only ever mutates its arrays in place, so lane
  methods (``advance``, ``place``, ``migrate``, ``release_ready_barriers``)
  keep working unchanged while the batch kernels read and write the shared
  backing directly.  Lanes may have different thread counts.
* **Bit-equality by construction.**  Elementwise kernels are batching-
  invariant; every *reduction* (demand sums, bandwidth bincounts, SMT
  sharing) is computed per lane over the same contiguous slice the scalar
  engine would see, with identical lengths and element order, so NumPy's
  pairwise summation and sequential bincount accumulation produce the
  same bits.  Per-lane RNG streams, quantum ordering and event emission
  are preserved exactly; batched and scalar execution produce
  byte-identical traces and bit-equal :class:`~repro.sim.results.RunResult`
  metrics (this is tested, and gated in CI).
* **Early finishers.**  A per-lane active flag (mirrored in a flat
  per-element mask) lets short runs finish — or hit their time horizon —
  while the batch continues; finished lanes cost nothing.
* **Scheduler tiers.**  ``static`` never migrates and ``cfs`` only acts
  when some physical core idles while another is SMT-crowded, so for
  non-observed lanes under those policies the batch skips building
  counters entirely and evaluates a vectorised gate instead.  Every
  other policy gets exact per-lane counters — built by the scalar
  engine's own ``_quantum_counters`` over the lane's slice — and a real
  ``decide``/``apply`` call, scalar-identical by construction.

Lanes must share the machine model (topology, memory constants, SMT
efficiency, warm-up miss scale) and must not use an LLC model; see
:func:`batch_compatible`.  Anything else — policy, seed, workload, work
scale, arrival process, max time, counter noise — may differ per lane.
The campaign layer (`repro.campaign.batching`) groups eligible tasks and
falls back to scalar execution for the rest.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs.events import QuantumEnd, QuantumStart
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.static import StaticScheduler
from repro.sim.counters import QuantumCounters
from repro.sim.engine import SimulationEngine
from repro.sim.memory import allocate_bandwidth, waterfill
from repro.sim.results import RunResult
from repro.util.validation import require

__all__ = ["BatchSimState", "BatchEngine", "batch_compatible"]

#: SimState columns concatenated into shared flat arrays, indexed by
#: (lane offset + tid).  Everything the flat kernels touch.
STACKED_COLUMNS = (
    "vcore",
    "work_done",
    "warmup_left",
    "pending_penalty",
    "total_work",
    "next_barrier",
    "seg_end",
    "cpi",
    "api",
    "miss_ratio",
    "arrived",
    "finished",
    "waiting",
    "suspend_left",
)

#: Default sibling-stall bonus of `repro.sim.smt.smt_cycle_rates` — the
#: engine always calls it with the default, which the flat kernel mirrors.
_SMT_STALL_BONUS = 0.25


class BatchSimState:
    """Flat-ragged stacking of N lanes' :class:`SimState` columns.

    Concatenates each column in ``STACKED_COLUMNS`` (plus per-vcore
    ``occupancy``) across lanes and rebinds every lane's attribute to its
    contiguous view, so lane-local methods and batch-flat kernels mutate
    the same memory.
    """

    def __init__(self, states: Sequence) -> None:
        self.states = list(states)
        counts = np.array([s.n for s in self.states], dtype=np.int64)
        self.counts = counts
        #: element offsets: lane ``r`` owns flat range ``[offsets[r], offsets[r+1])``
        self.offsets = np.zeros(len(self.states) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.n_flat = int(self.offsets[-1])
        for col in STACKED_COLUMNS:
            flat = np.concatenate([getattr(s, col) for s in self.states])
            setattr(self, col, flat)
            for s, lo, hi in zip(
                self.states, self.offsets[:-1], self.offsets[1:]
            ):
                setattr(s, col, flat[int(lo) : int(hi)])
        # Per-vcore occupancy, stacked with a uniform stride (all lanes
        # share one topology) — feeds the vectorised CFS gate.
        n_vcores = int(self.states[0].occupancy.size)
        self.n_vcores = n_vcores
        occ = np.concatenate([s.occupancy for s in self.states])
        self.occupancy = occ
        for r, s in enumerate(self.states):
            s.occupancy = occ[r * n_vcores : (r + 1) * n_vcores]


def batch_compatible(engines: Sequence[SimulationEngine]) -> str | None:
    """``None`` when the engines can share one batch, else the reason.

    Lanes must agree on everything entering the *shared* flat kernels:
    the machine (vcore->physical/socket maps, frequencies, bandwidth
    capacities), the memory-model constants, SMT efficiency and the
    migration warm-up miss scale.  The LLC hierarchy is per-quantum
    stateful in a way the flat kernels do not model, so any active LLC
    disqualifies the lane (the campaign layer routes those to the scalar
    engine).
    """
    if not engines:
        return "empty batch"
    first = engines[0]
    t0 = first.topology
    for eng in engines:
        if eng._llc_active:
            return "LLC model active"
        t = eng.topology
        if not (
            t.n_vcores == t0.n_vcores
            and t.n_physical_cores == t0.n_physical_cores
            and np.array_equal(t.vcore_physical, t0.vcore_physical)
            and np.array_equal(t.vcore_freq_hz, t0.vcore_freq_hz)
            and np.array_equal(t.vcore_socket, t0.vcore_socket)
            and np.array_equal(
                t.socket_interconnect_rate, t0.socket_interconnect_rate
            )
            and t.memory_controller_rate == t0.memory_controller_rate
        ):
            return "topology mismatch"
        if eng.memory.config != first.memory.config:
            return "memory config mismatch"
        if eng.smt_efficiency != first.smt_efficiency:
            return "smt_efficiency mismatch"
        if eng.migration.warmup_miss_scale != first.migration.warmup_miss_scale:
            return "warmup_miss_scale mismatch"
    return None


class BatchEngine:
    """Advance N compatible engines in lockstep through shared kernels.

    ``run()`` returns one :class:`RunResult` per engine, in input order,
    bit-equal to what each engine's own ``run()`` would have produced.
    """

    def __init__(self, engines: Sequence[SimulationEngine]) -> None:
        require(len(engines) >= 1, "batch needs at least one engine")
        reason = batch_compatible(engines)
        require(reason is None, f"engines cannot share a batch: {reason}")
        self.engines = list(engines)

    # ------------------------------------------------------------ kernels

    def _smt_flat(
        self,
        vcore_of: np.ndarray,
        run_of: np.ndarray,
        stall_frac: np.ndarray,
        n_lanes: int,
    ) -> np.ndarray:
        """Per-lane :func:`~repro.sim.smt.smt_cycle_rates` in one pass.

        Lane-offset bincount keys keep every per-core accumulation inside
        its lane (same element order as scalar, so bit-equal); elementwise
        steps are batching-invariant.  Lanes where no core is shared are
        untouched by the bonus term (``np.where`` discards it), matching
        the scalar early-out exactly.
        """
        topo = self.engines[0].topology
        n_vcores = topo.n_vcores
        n_phys = topo.n_physical_cores
        vcore_physical = topo.vcore_physical
        smt_eff = self.engines[0].smt_efficiency

        vkey = vcore_of + run_of * n_vcores
        vcore_load = np.bincount(vkey, minlength=n_lanes * n_vcores)
        busy_idx = np.flatnonzero(vcore_load > 0)
        phys_busy = np.bincount(
            vcore_physical[busy_idx % n_vcores] + (busy_idx // n_vcores) * n_phys,
            minlength=n_lanes * n_phys,
        )

        freq = topo.vcore_freq_hz[vcore_of]
        share_vcore = 1.0 / vcore_load[vkey]
        pkey = vcore_physical[vcore_of] + run_of * n_phys
        shared = phys_busy[pkey] > 1

        smt_factor = np.where(shared, smt_eff, 1.0)
        if shared.any():
            stall = np.clip(stall_frac, 0.0, 1.0)
            stall_sum = np.bincount(
                pkey, weights=stall, minlength=n_lanes * n_phys
            )
            count = np.bincount(pkey, minlength=n_lanes * n_phys)
            others = np.maximum(count[pkey] - 1, 1)
            sibling_stall = (stall_sum[pkey] - stall) / others
            bonus = np.where(
                count[pkey] > 1, _SMT_STALL_BONUS * sibling_stall, 0.0
            )
            smt_factor = np.where(shared, smt_factor + bonus, smt_factor)
        return freq * share_vcore * np.minimum(smt_factor, 1.0)

    def _solve_flat(
        self,
        bounds: np.ndarray,
        run_of: np.ndarray,
        cycle_rate: np.ndarray,
        cpi: np.ndarray,
        mpi: np.ndarray,
        socket_of: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched memory fixed point: one rho iteration per lane, shared
        elementwise work.

        The utilisation residual, secant acceleration and early exit are
        scalar *per lane* (exactly :meth:`MemorySystem.solve`, warm-started
        from each lane's ``last_utilization``); demand/rate arrays are
        computed flat and the allocation branch runs on each lane's
        contiguous slice so every sum and waterfill sees the same array
        the scalar solver would.  Lanes with no runnable threads are not
        in ``bounds`` segments and keep their solver state untouched, as
        the scalar engine does when it skips the solve.
        """
        lanes = self.engines
        cfg = lanes[0].memory.config
        tol = cfg.fixed_point_tolerance
        controller_capacity = lanes[0].memory.controller_capacity
        socket_capacity = lanes[0].memory.socket_capacity
        n_sockets = socket_capacity.size
        n_lanes = len(lanes)

        nfl = cycle_rate.size
        counts = np.diff(bounds)
        rows = [int(r) for r in np.flatnonzero(counts > 0)]
        mpi_pos = mpi > 0.0
        ips_mem = np.full(nfl, np.inf)
        access = np.zeros(nfl)
        ips = np.zeros(nfl)
        sock_key = socket_of + run_of * n_sockets

        rho = [lanes[r].memory.last_utilization for r in range(n_lanes)]
        rho_prev = [0.0] * n_lanes
        h_prev = [0.0] * n_lanes
        new_rho = list(rho)
        iters = [0] * n_lanes
        live = [r in set(rows) for r in range(n_lanes)]
        stall_lane = np.zeros(n_lanes)

        for _ in range(cfg.fixed_point_iterations):
            todo = [r for r in rows if live[r]]
            if not todo:
                break
            for r in todo:
                iters[r] += 1
                stall_lane[r] = cfg.stall_cycles(rho[r])
            stall_el = stall_lane[run_of]
            ips0 = cycle_rate / (cpi + mpi * stall_el)
            demand = ips0 * mpi
            socket_demand = np.bincount(
                sock_key, weights=demand, minlength=n_lanes * n_sockets
            ).reshape(n_lanes, n_sockets)
            for r in todo:
                l, h = int(bounds[r]), int(bounds[r + 1])
                d = demand[l:h]
                if np.any(socket_demand[r] > socket_capacity):
                    a = allocate_bandwidth(
                        d, socket_of[l:h], socket_capacity, controller_capacity
                    )
                elif float(d.sum()) <= controller_capacity:
                    a = d
                else:
                    a = waterfill(d, controller_capacity)
                access[l:h] = a
            np.divide(access, mpi, out=ips_mem, where=mpi_pos)
            ips_it = np.minimum(ips0, ips_mem)
            for r in todo:
                l, h = int(bounds[r]), int(bounds[r + 1])
                ips[l:h] = ips_it[l:h]
                nr = float(access[l:h].sum() / controller_capacity)
                hres = nr - rho[r]
                new_rho[r] = nr
                if abs(hres) <= tol * max(abs(nr), abs(rho[r])):
                    live[r] = False
                    continue
                if iters[r] > 1 and hres != h_prev[r]:
                    candidate = rho[r] - hres * (rho[r] - rho_prev[r]) / (
                        hres - h_prev[r]
                    )
                else:
                    candidate = 0.5 * rho[r] + 0.5 * nr
                if not 0.0 <= candidate <= 2.0:
                    candidate = 0.5 * rho[r] + 0.5 * nr
                rho_prev[r], h_prev[r] = rho[r], hres
                rho[r] = candidate

        for r in rows:
            mem = lanes[r].memory
            mem.last_utilization = float(new_rho[r])
            mem.last_iterations = int(iters[r])
            if mem.metrics is not None:
                mem.metrics.histogram("memory.solve_iterations").observe(
                    int(iters[r])
                )
        return access, ips

    # ----------------------------------------------------------- main loop

    def run(self) -> list[RunResult]:
        """Run every lane to completion; results in input order."""
        lanes = self.engines
        n_lanes = len(lanes)
        for eng in lanes:
            eng._start()
        st = BatchSimState([eng.state for eng in lanes])
        offs = st.offsets
        topo = lanes[0].topology
        n_vcores = topo.n_vcores
        n_phys = topo.n_physical_cores
        vcore_physical = topo.vcore_physical
        vcore_socket = topo.vcore_socket
        base_stall = lanes[0].memory.config.base_miss_stall_cycles
        warmup_scale = lanes[0].migration.warmup_miss_scale

        observing = [
            eng.trace.record_timeseries or eng.bus.enabled for eng in lanes
        ]
        static_lane = [
            isinstance(eng.scheduler, StaticScheduler) for eng in lanes
        ]
        cfs_lane = [isinstance(eng.scheduler, CFSScheduler) for eng in lanes]
        # Counters are only built where something consumes them:
        # a policy that reads them, a trace recorder, or an event sink.
        needs_counters = [
            obs or not (stat or cfs)
            for obs, stat, cfs in zip(observing, static_lane, cfs_lane)
        ]

        active = [True] * n_lanes
        enabled = np.ones(st.n_flat, dtype=bool)
        qlen_lane = [0.0] * n_lanes

        while True:
            # -- lifecycle: retire finished / truncated lanes (loop head,
            #    mirroring the scalar while-condition order exactly)
            for r, eng in enumerate(lanes):
                if not active[r]:
                    continue
                if eng.state.all_finished():
                    active[r] = False
                    enabled[int(offs[r]) : int(offs[r + 1])] = False
                elif eng.time_s >= eng.max_time_s:
                    eng.truncated = True
                    active[r] = False
                    enabled[int(offs[r]) : int(offs[r + 1])] = False
            act = [r for r in range(n_lanes) if active[r]]
            if not act:
                break

            for r in act:
                q = float(lanes[r].scheduler.quantum_length_s())
                require(
                    q > 0.0, f"scheduler returned non-positive quantum {q}"
                )
                qlen_lane[r] = q

            # -- observing prepass: quantum-start events + live snapshot
            live_snapshots: dict[int, np.ndarray] = {}
            for r in act:
                if not observing[r]:
                    continue
                eng = lanes[r]
                if eng.bus.enabled:
                    eng.bus.at(eng.quantum_index, eng.time_s)
                    eng.bus.emit(
                        QuantumStart(
                            quantum=eng.quantum_index,
                            time_s=eng.time_s,
                            quantum_length_s=qlen_lane[r],
                        )
                    )
                live_snapshots[r] = eng.state.live_indices()

            # -- flat runnable set across all active lanes
            mask = st.arrived & ~st.finished & ~st.waiting
            mask &= enabled
            if any(eng.state.n_suspended for eng in lanes):
                mask &= st.suspend_left == 0
            fl = np.flatnonzero(mask)
            bounds = np.searchsorted(fl, offs)
            run_of = np.repeat(np.arange(n_lanes), np.diff(bounds))
            nfl = fl.size

            qarr = np.array(qlen_lane)
            tarr = np.array([eng.time_s for eng in lanes])

            # Empty when no lane has a runnable thread; every lane's
            # counter slice is then empty too.
            vcore_of = fl
            api = work = eff_time = access_rate = np.zeros(0)
            if nfl:
                qlen_el = qarr[run_of]
                vcore_of = st.vcore[fl]
                cpi = st.cpi[fl]
                api = st.api[fl]
                miss_ratio = st.miss_ratio[fl]
                warmup_left = st.warmup_left[fl]

                mpi0 = api * miss_ratio
                stall_frac = (mpi0 * base_stall) / (cpi + mpi0 * base_stall)
                cycle_rate = self._smt_flat(vcore_of, run_of, stall_frac, n_lanes)

                if warmup_left.any():
                    # Lanes with no warm-up are unchanged by this block:
                    # frac == 0 gives scale == 1, and x * 1.0 == x.
                    expected = (
                        cycle_rate / (cpi + api * miss_ratio * base_stall) * qlen_el
                    )
                    frac = np.clip(
                        warmup_left / np.maximum(expected, 1.0), 0.0, 1.0
                    )
                    scale = 1.0 + (warmup_scale - 1.0) * frac
                    miss_ratio = np.minimum(miss_ratio * scale, 1.0)
                socket_of = vcore_socket[vcore_of]
                mpi = api * miss_ratio
                access_rate, ips = self._solve_flat(
                    bounds, run_of, cycle_rate, cpi, mpi, socket_of
                )

                penalties = st.pending_penalty[fl]
                eff_time = np.maximum(qlen_el - penalties, 0.0)
                work = ips * eff_time

                time_el = tarr[run_of]
                end_time = time_el + qlen_el
                remaining = np.maximum(st.total_work[fl] - st.work_done[fl], 0.0)
                interp = (
                    (work >= remaining)
                    & (remaining > 0.0)
                    & (ips > 0.0)
                    & (st.next_barrier[fl] >= st.total_work[fl])
                )
                if interp.any():
                    with np.errstate(divide="ignore", invalid="ignore"):
                        finish_at = time_el + penalties + remaining / ips
                    now = np.where(interp, finish_at, end_time)
                else:
                    now = end_time

                # advance: flat scatter for lanes with no barrier hit and
                # no completion this quantum; the (rare) event lanes go
                # through their own SimState.advance for the exact
                # occupancy / group / window bookkeeping.
                target = st.work_done[fl] + work
                evt = (target >= st.next_barrier[fl]) | (
                    target >= st.total_work[fl]
                )
                if evt.any():
                    evt_rows = np.zeros(n_lanes, dtype=bool)
                    evt_rows[run_of[evt]] = True
                    fast = ~evt_rows[run_of]
                    st.work_done[fl[fast]] = target[fast]
                    for r in np.flatnonzero(evt_rows).tolist():
                        l, h = int(bounds[r]), int(bounds[r + 1])
                        lanes[r].state.advance(
                            fl[l:h] - int(offs[r]), work[l:h], now[l:h]
                        )
                else:
                    st.work_done[fl] = target
                # consume_quantum, flat (elementwise, batching-invariant)
                st.warmup_left[fl] = np.maximum(st.warmup_left[fl] - work, 0.0)
                st.pending_penalty[fl] = 0.0
                # refresh_segments: only lanes with a boundary crossing
                crossed = st.work_done[fl] >= st.seg_end[fl]
                if crossed.any():
                    for r in np.unique(run_of[crossed]).tolist():
                        l, h = int(bounds[r]), int(bounds[r + 1])
                        lanes[r].state.refresh_segments(fl[l:h] - int(offs[r]))

            # -- per-lane quantum tail: counters, lifecycle, events,
            #    barriers and arrivals (matches _execute_quantum order)
            counters_by_lane: dict[int, QuantumCounters] = {}
            for r in act:
                eng = lanes[r]
                q = qlen_lane[r]
                l, h = int(bounds[r]), int(bounds[r + 1])
                if needs_counters[r]:
                    sl = slice(l, h)
                    counters_by_lane[r] = eng._quantum_counters(
                        q,
                        fl[sl] - int(offs[r]),
                        vcore_of[sl],
                        work[sl],
                        eff_time[sl],
                        access_rate[sl],
                        api[sl],
                    )
                eng.state.tick_suspensions()
                eng.time_s += q
                eng._drain_completed()
                if observing[r]:
                    counters = counters_by_lane[r]
                    live_idx = live_snapshots[r]
                    assignments = dict(
                        zip(live_idx.tolist(), eng.state.vcore[live_idx].tolist())
                    )
                    access_rates = counters.access_rates()
                    eng.trace.record_quantum(
                        eng.time_s,
                        q,
                        eng.memory.last_utilization,
                        access_rates,
                        assignments,
                    )
                    if eng.bus.enabled:
                        eng.bus.emit(
                            QuantumEnd(
                                quantum=eng.quantum_index,
                                time_s=eng.time_s,
                                assignments=assignments,
                                access_rates=access_rates,
                            )
                        )
                eng.quantum_index += 1
                eng.state.release_ready_barriers()
                eng._place_arrivals()

            # -- scheduler pass.  CFS lanes act only when their vectorised
            #    gate fires: some physical core idle while another hosts
            #    >= 2 busy vcores (exactly when CFSScheduler.decide would
            #    return a non-empty move list).  static never acts.
            gate = None
            if any(cfs_lane[r] and active[r] for r in act):
                busy_idx = np.flatnonzero(st.occupancy > 0)
                phys_load = np.bincount(
                    vcore_physical[busy_idx % n_vcores]
                    + (busy_idx // n_vcores) * n_phys,
                    minlength=n_lanes * n_phys,
                ).reshape(n_lanes, n_phys)
                gate = ((phys_load == 0).any(axis=1)) & (
                    (phys_load >= 2).any(axis=1)
                )
            for r in act:
                eng = lanes[r]
                if static_lane[r]:
                    continue  # decide() is a stateless no-op
                if cfs_lane[r] and not (gate is not None and gate[r]):
                    continue
                placement = eng.state.live_placement()
                if placement:
                    actions = eng.scheduler.decide(
                        counters_by_lane.get(r), placement
                    )
                    eng._apply_actions(actions, placement)

        return [eng._finish() for eng in lanes]
