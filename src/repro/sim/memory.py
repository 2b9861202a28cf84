"""Shared-memory contention model: max-min fair bandwidth + queueing delay.

The paper identifies main-memory bandwidth (memory controller plus on-chip
interconnect) as the dominant contention resource.  This module models both
stages:

1. **Per-socket interconnect** — threads on one socket share that socket's
   link to the memory controller.
2. **Global memory controller** — all sockets share the controller.

Allocation is **max-min fair** ("water-filling"): every thread receives its
demand if total demand fits, otherwise bandwidth-hungry threads are capped
at a common fair level while modest threads keep their full demand.  This
matches measured DRAM-scheduler behaviour closely enough for the
scheduler-visible signal (achieved accesses/second per thread) and produces
the paper's headline phenomenon: memory-intensive threads collapse under
contention while compute-intensive threads barely notice.

On top of the rate allocation, a **queueing-latency inflation** term raises
the per-miss stall cost as the controller approaches saturation
(an M/M/1-flavoured ``1/(1-rho)`` shape, clamped).  The engine solves the
resulting fixed point (stall cost depends on utilisation, utilisation
depends on achieved rates, achieved rates depend on stall cost) with a few
damped iterations per quantum; convergence is monotone in practice.

The solver is **adaptive**: each quantum warm-starts from the previous
quantum's utilisation and accelerates with secant steps on the scalar
utilisation residual, so in steady state the loop exits after one or two
evaluations — and after two or three on load shifts — instead of always
burning the full ``fixed_point_iterations`` budget (which remains the
backstop).  Iterations-to-converge are surfaced through the optional
``metrics`` registry (histogram ``memory.solve_iterations``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.validation import check_in_range, check_non_negative, check_positive

__all__ = ["MemoryModelConfig", "waterfill", "allocate_bandwidth", "MemorySystem"]


@dataclass(frozen=True)
class MemoryModelConfig:
    """Tunable physical constants of the memory model.

    Parameters
    ----------
    base_miss_stall_cycles:
        Effective (MLP-overlapped) stall cycles per LLC miss at an idle
        memory system, measured in cycles of the *requesting* core.
    contention_stall_scale:
        Strength of the queueing inflation; stall cycles become
        ``base * (1 + scale * rho**contention_exponent)`` where ``rho`` is
        memory-controller utilisation.
    contention_exponent:
        Shape of the inflation curve (2 = quadratic ramp near saturation).
    max_utilization:
        Cap on ``rho`` used inside the inflation term (numerical guard).
    fixed_point_iterations:
        Maximum damped iterations used to solve the rate/latency fixed
        point (the backstop of the adaptive early exit).
    fixed_point_tolerance:
        Relative residual on controller utilisation below which the solver
        stops early: once ``|rho_new - rho| <= tol * max(rho_new, rho)``
        the iterate has converged to working precision and further rounds
        cannot change scheduler-visible rates meaningfully.  ``0`` disables
        early exit (always run the full budget) except at exact fixed
        points, where further iterations are provably identical.
    """

    base_miss_stall_cycles: float = 60.0
    contention_stall_scale: float = 3.0
    contention_exponent: float = 2.0
    max_utilization: float = 0.98
    fixed_point_iterations: int = 6
    fixed_point_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        check_positive(self.base_miss_stall_cycles, "base_miss_stall_cycles")
        check_non_negative(self.contention_stall_scale, "contention_stall_scale")
        check_positive(self.contention_exponent, "contention_exponent")
        check_in_range(self.max_utilization, 0.1, 1.0, "max_utilization")
        if self.fixed_point_iterations < 1:
            raise ValueError("fixed_point_iterations must be >= 1")
        check_non_negative(self.fixed_point_tolerance, "fixed_point_tolerance")

    def stall_cycles(self, rho: float) -> float:
        """Stall cycles per miss at memory-controller utilisation ``rho``."""
        rho = min(max(float(rho), 0.0), self.max_utilization)
        return self.base_miss_stall_cycles * (
            1.0 + self.contention_stall_scale * rho**self.contention_exponent
        )


def _fill(demands: np.ndarray, capacity: float, total: float) -> np.ndarray:
    """Max-min fair split of ``capacity`` among ``demands``, unchecked.

    The one copy of the fill arithmetic, behind `waterfill` and the
    solver.  ``demands`` is 1-D, non-negative float64 and ``total`` is
    its pairwise ``sum()``, which exceeds ``capacity``.  Returns a fresh
    array.
    """
    n = demands.size
    # Sorting the values suffices: every capped demand gets one level, so
    # nothing is scattered back through a sort order.
    sorted_d = np.sort(demands, kind="stable")
    # prefix[i] = sum of the i smallest demands, accumulated in order.
    prefix = np.zeros(n)
    sorted_d[:-1].cumsum(out=prefix[1:])
    # If every demand from index i up were capped at level L, usage would
    # be prefix[i] + (n - i) * L.  The first i where the level that
    # exhausts capacity is below sorted_d[i] fixes the level.
    levels = (capacity - prefix) / (n - np.arange(n))
    capped = levels < sorted_d
    i = capped.argmax()
    if not capped[i]:
        # Degenerate float case: capacity effectively covers everything.
        return demands * (capacity / total)
    return np.minimum(demands, max(levels[i], 0.0))


def waterfill(demands: np.ndarray, capacity: float) -> np.ndarray:
    """Max-min fair allocation of ``capacity`` among ``demands``.

    Returns an array ``alloc`` with ``alloc <= demands`` elementwise,
    ``alloc.sum() <= capacity`` (tight when total demand exceeds capacity),
    and the max-min property: any thread not receiving its full demand
    receives the common water level, which no fully-served thread exceeds.

    Runs in O(n log n) via the classic sorted-prefix formulation.
    """
    demands = np.asarray(demands, dtype=np.float64)
    if demands.ndim != 1:
        raise ValueError(f"demands must be 1-D, got shape {demands.shape}")
    if np.any(demands < 0):
        raise ValueError("demands must be non-negative")
    capacity = float(capacity)
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if demands.size == 0:
        return demands.copy()
    total = demands.sum()
    if total <= capacity:
        return demands.copy()
    return _fill(demands, capacity, total)


def allocate_bandwidth(
    demands: np.ndarray,
    socket_of: np.ndarray,
    socket_capacity: np.ndarray,
    controller_capacity: float,
) -> np.ndarray:
    """Two-stage max-min fair allocation: per-socket link, then controller.

    Stage 1 caps each thread at its socket's max-min fair share of the
    socket interconnect.  Stage 2 water-fills the controller capacity over
    the stage-1 caps.  The result respects both constraint families and is
    max-min fair with per-thread caps.

    Parameters
    ----------
    demands:
        Per-thread demanded access rate (accesses/second), shape ``(n,)``.
    socket_of:
        Socket id of each thread's current core, shape ``(n,)``.
    socket_capacity:
        Interconnect capacity per socket (accesses/second), shape ``(s,)``.
    controller_capacity:
        Memory-controller capacity (accesses/second).
    """
    demands = np.asarray(demands, dtype=np.float64)
    socket_of = np.asarray(socket_of, dtype=np.int64)
    socket_capacity = np.asarray(socket_capacity, dtype=np.float64)
    if demands.shape != socket_of.shape:
        raise ValueError("demands and socket_of must have the same shape")
    if demands.size and (
        socket_of.min() < 0 or socket_of.max() >= socket_capacity.size
    ):
        raise ValueError("socket_of contains an unknown socket id")
    # Stage 1 is the identity on every socket within its link capacity,
    # so only the oversubscribed ones are filled.
    socket_demand = np.bincount(
        socket_of, weights=demands, minlength=socket_capacity.size
    )
    capped = demands.copy()
    for sid in np.flatnonzero(socket_demand > socket_capacity):
        mask = socket_of == sid
        capped[mask] = waterfill(demands[mask], float(socket_capacity[sid]))
    return waterfill(capped, controller_capacity)


class MemorySystem:
    """Stateful wrapper binding the model config to a topology's capacities.

    The engine calls :meth:`solve` once per quantum with the per-thread
    demand *functions* expressed as arrays; the method returns achieved
    access rates and effective instruction rates after solving the
    latency/utilisation fixed point.
    """

    def __init__(
        self,
        socket_capacity: np.ndarray,
        controller_capacity: float,
        config: MemoryModelConfig | None = None,
    ) -> None:
        self.socket_capacity = np.asarray(socket_capacity, dtype=np.float64)
        if np.any(self.socket_capacity < 0):
            raise ValueError("socket_capacity must be non-negative")
        self.controller_capacity = check_positive(
            controller_capacity, "controller_capacity"
        )
        self.config = config or MemoryModelConfig()
        #: utilisation of the controller in the most recent solve (diagnostics)
        self.last_utilization = 0.0
        #: iterations the most recent solve needed to converge (diagnostics)
        self.last_iterations = 0
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        #: each solve records its iteration count (``memory.solve_iterations``)
        self.metrics = None

    def solve(
        self,
        cycle_rate: np.ndarray,
        cpi: np.ndarray,
        mpi: np.ndarray,
        socket_of: np.ndarray,
        bounds: Sequence[int] | None = None,
        lanes: Sequence["MemorySystem"] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve one quantum's rates for ``n`` runnable threads.

        Parameters
        ----------
        cycle_rate:
            Cycles/second available to each thread (frequency x SMT share).
        cpi:
            Compute cycles per instruction of the thread's current phase.
        mpi:
            Misses per instruction of the current phase.
        socket_of:
            Socket hosting each thread.
        bounds, lanes:
            Several independent runs ("lanes") on copies of this machine
            in one call: lane ``r`` owns threads ``bounds[r]:bounds[r + 1]``
            and its solver state is ``lanes[r]`` (a system with this one's
            config and capacities), which warm-starts the lane and records
            its utilisation, iteration count and metrics.  ``None``: one
            lane, this system.  Each lane runs its own fixed point over
            its own contiguous slice, so its rates are bit-identical to
            solving it alone; a lane with no threads is left untouched.

        Returns
        -------
        (access_rate, ips):
            Achieved memory access rate (misses/second) and instruction
            rate (instructions/second) per thread.

        Notes
        -----
        For a stall cost ``L`` the *demanded* instruction rate is
        ``ips0 = cycle_rate / (cpi + mpi * L)`` and demanded access rate is
        ``d = ips0 * mpi``.  The allocator returns achieved rates
        ``a <= d``; a memory-limited thread's instruction rate follows its
        achieved access rate (``ips = a / mpi``), a compute-limited thread
        keeps ``ips0``.  ``L`` itself depends on controller utilisation, so
        we solve the one-dimensional fixed point in ``rho``: warm-started
        from the previous quantum's utilisation, accelerated with secant
        steps once two evaluations are in hand (damped Picard as the
        fallback), and exiting as soon as the utilisation residual drops
        below ``config.fixed_point_tolerance`` (the iteration budget is
        the backstop for cold starts and load shifts).

        Each iteration is `allocate_bandwidth` per lane, computed the lean
        way: the inputs are checked once per solve (lengths, socket ids,
        no negative rate), one ``bincount`` flags the congested (lane,
        socket) segments, whose member indices are built the first time
        each is congested, and the unchecked fill kernel runs once per
        segment whose own pairwise sum exceeds its link, then once per
        live lane whose total exceeds the controller.  The rates are
        bit-identical to calling the public allocators lane by lane.
        """
        cycle_rate = np.asarray(cycle_rate, dtype=np.float64)
        cpi = np.asarray(cpi, dtype=np.float64)
        mpi = np.asarray(mpi, dtype=np.float64)
        socket_of = np.asarray(socket_of, dtype=np.int64)
        n = cycle_rate.size
        if not (cpi.size == mpi.size == socket_of.size == n):
            raise ValueError("all per-thread arrays must have equal length")
        if n == 0:
            empty = np.zeros(0, dtype=np.float64)
            return empty, empty
        socket_capacity = self.socket_capacity
        n_sockets = socket_capacity.size
        if socket_of.min() < 0 or socket_of.max() >= n_sockets:
            raise ValueError("socket_of contains an unknown socket id")
        # Non-negative inputs give non-negative demands at every stall
        # cost, so the fills below need no checks of their own.
        if min(cycle_rate.min(), cpi.min(), mpi.min()) < 0.0:
            raise ValueError("cycle_rate, cpi and mpi must be non-negative")
        if lanes is None:
            lanes, bounds = (self,), (0, n)
        config = self.config
        budget = config.fixed_point_iterations
        tol = config.fixed_point_tolerance
        controller_capacity = self.controller_capacity
        socket_caps = socket_capacity.tolist()

        # Per-lane scalars of the fixed point, one entry per non-empty
        # lane: the only values that change between iterations.
        rows = [r for r in range(len(lanes)) if bounds[r + 1] > bounds[r]]
        m = len(rows)
        segs = [slice(bounds[r], bounds[r + 1]) for r in rows]
        rho = [lanes[r].last_utilization for r in rows]  # warm starts
        rho_prev = [0.0] * m
        h_prev = [0.0] * m
        new_rho = list(rho)
        iterations = [budget] * m
        stall = [config.stall_cycles(u) for u in rho]
        running = [True] * m
        # Each thread's entry in those lists, to gather stall costs and key
        # socket sums by (lane, socket).  One lane needs neither: its stall
        # cost is one scalar and its keys are the socket ids.
        lane_of = None
        key = socket_of
        key_capacity = socket_capacity
        if m > 1:
            lane_of = np.repeat(np.arange(m), np.diff(bounds)[rows])
            key = socket_of + lane_of * n_sockets
            key_capacity = np.tile(socket_capacity, m)
        # Member indices of each (lane, socket) segment by key, built the
        # first time the segment is congested.
        members: dict[int, np.ndarray] = {}
        # Loop invariants, hoisted.
        mpi_pos = mpi > 0.0
        ips_mem = np.full(n, np.inf)
        # A lane's rates are those of its last iteration: lanes that stop
        # while others go on are copied out here.
        kept = None
        todo = list(range(m))
        for k in range(1, budget + 1):
            live = todo
            stall_el = stall[0] if lane_of is None else np.array(stall)[lane_of]
            ips0 = cycle_rate / (cpi + mpi * stall_el)
            # Demand, allocated in place.  Stage 1: every congested socket
            # link of a live lane gets its max-min fair fill; a segment's
            # own sum, not the bincount that flags it, decides whether it
            # is over.
            access = ips0 * mpi
            over = np.bincount(key, weights=access, minlength=key_capacity.size)
            for c in np.nonzero(over > key_capacity)[0].tolist():
                i, s = divmod(c, n_sockets)
                if not running[i]:
                    continue
                idx = members.get(c)
                if idx is None:
                    seg = segs[i]
                    idx = np.flatnonzero(socket_of[seg] == s) + seg.start
                    members[c] = idx
                d = access[idx]
                total = d.sum()
                if total > socket_caps[s]:
                    access[idx] = _fill(d, socket_caps[s], total)
            # Stage 2: every live lane over the controller capacity.
            todo = []
            for i in live:
                d = access[segs[i]]
                total = d.sum()
                if total > controller_capacity:
                    d[:] = _fill(d, controller_capacity, total)
                    total = d.sum()
                nr = new_rho[i] = float(total / controller_capacity)
                # Residual of the un-damped update; at an exact fixed point
                # (``nr == rho``) every further iteration would be
                # bit-identical, so stopping is safe even with ``tol == 0``.
                r0 = rho[i]
                h = nr - r0
                if abs(h) <= tol * max(abs(nr), abs(r0)):
                    iterations[i] = k
                    running[i] = False
                    continue
                # Secant step on g(rho) = f(rho) - rho: with two evaluations
                # in hand, jump to the root estimate instead of creeping
                # there with damped Picard steps.  Fall back to the damped
                # step on the first iteration or a degenerate/overshooting
                # secant (the backstop budget still bounds the loop).
                if k > 1 and h != h_prev[i]:
                    candidate = r0 - h * (r0 - rho_prev[i]) / (h - h_prev[i])
                else:
                    candidate = 0.5 * r0 + 0.5 * nr
                if not 0.0 <= candidate <= 2.0:
                    candidate = 0.5 * r0 + 0.5 * nr
                rho_prev[i], h_prev[i], rho[i] = r0, h, candidate
                stall[i] = config.stall_cycles(candidate)
                todo.append(i)
            if len(todo) == len(live) and k < budget:
                continue  # no lane stops here, so no rates are final
            np.divide(access, mpi, out=ips_mem, where=mpi_pos)
            ips = np.minimum(ips0, ips_mem)
            if not todo or k == budget:
                break
            if kept is None:
                kept = np.empty(n), np.empty(n)
            for i in set(live) - set(todo):
                kept[0][segs[i]] = access[segs[i]]
                kept[1][segs[i]] = ips[segs[i]]
        if kept is not None:  # the lanes of the last iteration join them
            for i in live:
                kept[0][segs[i]] = access[segs[i]]
                kept[1][segs[i]] = ips[segs[i]]
            access, ips = kept
        for i, r in enumerate(rows):
            system = lanes[r]
            system.last_utilization = new_rho[i]
            system.last_iterations = iterations[i]
            if system.metrics is not None:
                system.metrics.histogram("memory.solve_iterations").observe(
                    iterations[i]
                )
        return access, ips
