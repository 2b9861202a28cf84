"""Batched multi-run engine: N independent runs stepped in lockstep.

Campaign grids (seed sweeps, figure grids, policy matrices) execute many
*independent* simulations whose dominant cost — after the SoA ``SimState``
rework — is per-run Python stepping: every run pays the same ~30 NumPy
dispatch overheads per quantum regardless of thread count.  This module
amortises that overhead across runs: a :class:`BatchEngine` holds N
complete :class:`~repro.sim.engine.SimulationEngine` instances ("lanes")
and advances them **one quantum per iteration through one call of the
engine's** :func:`~repro.sim.engine.step_quantum`, so the per-quantum
physics (gathers, SMT sharing, LLC occupancy, the memory fixed point,
progress updates) is paid once per batch instead of once per run.

Design
------
* **Lanes stay real engines.**  Setup (scheduler prepare + initial
  placement), the quantum prologue and tail (counters, lifecycle events,
  trace), barrier release, arrivals, decisions and result building all
  run through each lane's own ``SimulationEngine`` methods — the same
  ones the scalar loop calls.  There is one physics kernel; the scalar
  engine runs it as a single lane.
* **Flat-ragged state.**  :class:`BatchSimState` concatenates the per-tid
  columns of every lane's :class:`~repro.sim.state.SimState` into shared
  flat arrays and *rebinds* each lane's columns to contiguous views of
  them.  ``SimState`` only ever mutates its arrays in place, so lane
  methods (``place``, ``migrate``, ``finish``, ``release_ready_barriers``)
  keep working unchanged while the kernel reads and writes the shared
  backing directly.  Lanes may have different thread counts.
* **Bit-equality by construction.**  Elementwise kernels are batching-
  invariant; every *reduction* (demand sums, bandwidth bincounts, SMT
  sharing, LLC occupancy) is computed per lane over the same contiguous
  slice a single-lane run sees, with identical lengths and element order,
  so NumPy's pairwise summation and sequential bincount accumulation
  produce the same bits.  Per-lane RNG streams, quantum ordering and
  event emission are preserved exactly; batched and scalar execution
  produce byte-identical traces and :class:`~repro.sim.results.RunResult`
  bytes (this is tested, and gated in CI).
* **Early finishers.**  A per-lane active flag (mirrored in a flat
  per-element mask) lets short runs finish — or hit their time horizon —
  while the batch continues; finished lanes cost nothing.
* **Gated decisions.**  A scheduler whose ``decide`` is gated
  (`repro.schedulers.base.gated`: ``static`` never acts, ``cfs`` only
  when a physical core idles beside an SMT-crowded one) gets no counter
  window unless observed, and each distinct gate is evaluated once per
  quantum over every lane's stacked occupancy.  Every other policy gets
  its exact per-lane counters and a real ``decide``/``apply`` call.

Lanes must share the machine model (topology, memory constants, SMT
efficiency, warm-up miss scale); see :func:`batch_compatible`.  Anything
else — policy, seed, workload, work scale, arrival process, LLC model,
max time, counter noise — may differ per lane.  The campaign layer
(`repro.campaign.batching`) groups eligible tasks and runs the rest
scalar.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.engine import SimulationEngine, step_quantum

# Unused here; kept as module attributes because the benchmark tracer
# (bench/tracing.py) wraps these names.
from repro.sim.memory import allocate_bandwidth, waterfill  # noqa: F401
from repro.sim.results import RunResult
from repro.util.validation import require

__all__ = ["BatchSimState", "BatchEngine", "batch_compatible"]

#: SimState columns concatenated into shared flat arrays, indexed by
#: (lane offset + tid).  Everything `step_quantum` touches.
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


class BatchSimState:
    """Flat-ragged stacking of N lanes' :class:`SimState` columns.

    Concatenates each column in ``STACKED_COLUMNS`` (plus per-vcore
    ``occupancy``) across lanes and rebinds every lane's attribute to its
    contiguous view, so lane-local methods and batch-flat kernels mutate
    the same memory.
    """

    def __init__(self, states: Sequence) -> None:
        states = list(states)
        #: element offsets: lane ``r`` owns flat range ``[offsets[r], offsets[r+1])``
        self.offsets = np.zeros(len(states) + 1, dtype=np.int64)
        np.cumsum([s.n for s in states], out=self.offsets[1:])
        self.n_flat = int(self.offsets[-1])
        for col in STACKED_COLUMNS:
            flat = np.concatenate([getattr(s, col) for s in states])
            setattr(self, col, flat)
            for s, lo, hi in zip(states, self.offsets[:-1], self.offsets[1:]):
                setattr(s, col, flat[lo:hi])
        # Per-vcore occupancy, stacked with a uniform stride (all lanes
        # share one topology) — feeds the vectorised decide gates.
        n_vcores = states[0].occupancy.size
        self.occupancy = np.concatenate([s.occupancy for s in states])
        for r, s in enumerate(states):
            s.occupancy = self.occupancy[r * n_vcores : (r + 1) * n_vcores]


def batch_compatible(engines: Sequence[SimulationEngine]) -> str | None:
    """``None`` when the engines can share one batch, else the reason.

    Lanes must agree on everything `step_quantum` takes from the first
    lane: the machine (vcore->physical/socket maps, frequencies, bandwidth
    capacities), the memory-model constants, SMT efficiency and the
    migration warm-up miss scale.  Each lane's LLC model resolves its own
    threads, so LLC models may differ.
    """
    if not engines:
        return "empty batch"
    first = engines[0]
    t0 = first.topology
    for eng in engines:
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

    def run(self) -> list[RunResult]:
        """Run every lane to completion; results in input order."""
        lanes = self.engines
        n_lanes = len(lanes)
        for eng in lanes:
            eng._start()
        st = BatchSimState([eng.state for eng in lanes])
        offs = st.offsets
        topo = lanes[0].topology
        occupancy = st.occupancy.reshape(n_lanes, -1)
        gates = [eng._decide_gate for eng in lanes]
        active = [True] * n_lanes
        enabled = np.ones(st.n_flat, dtype=bool)
        qlen = [0.0] * n_lanes

        while True:
            # Loop head: retire finished / truncated lanes (the scalar
            # loop's check, per lane).
            for r, eng in enumerate(lanes):
                if active[r] and not eng._running():
                    active[r] = False
                    enabled[offs[r] : offs[r + 1]] = False
            act = [r for r in range(n_lanes) if active[r]]
            if not act:
                break
            for r in act:
                qlen[r] = lanes[r]._quantum_length()
            live = {r: lanes[r]._begin_quantum(qlen[r]) for r in act}

            # Runnable threads of every active lane, in lane order.
            mask = st.arrived & ~st.finished & ~st.waiting
            mask &= enabled
            if any(eng.state.n_suspended for eng in lanes):
                mask &= st.suspend_left == 0
            fl = np.flatnonzero(mask)
            bounds = np.searchsorted(fl, offs)
            run_of = np.repeat(np.arange(n_lanes), np.diff(bounds))
            rows = step_quantum(
                lanes,
                st,
                fl,
                bounds,
                np.array(qlen)[run_of],
                np.array([eng.time_s for eng in lanes])[run_of],
                offs,
                run_of,
            )

            counters = {}
            for r in act:
                seg = slice(bounds[r], bounds[r + 1])
                counters[r] = lanes[r]._end_quantum(
                    qlen[r], live[r], fl[seg] - offs[r], *(a[seg] for a in rows)
                )

            # Decisions: each distinct gate runs once over every lane's
            # occupancy row.
            opened = {g: g(topo, occupancy) for g in {gates[r] for r in act} - {None}}
            for r in act:
                gate = gates[r]
                if gate is None or opened[gate][r]:
                    lanes[r]._decide(counters[r])

        return [eng._build_result() for eng in lanes]
