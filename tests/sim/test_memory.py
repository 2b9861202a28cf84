"""Tests for max-min fair bandwidth allocation and the contention model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sim.memory import (
    MemoryModelConfig,
    MemorySystem,
    allocate_bandwidth,
    waterfill,
)

demand_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 24),
    elements=st.floats(0.0, 1e9, allow_nan=False),
)


class TestWaterfill:
    def test_under_capacity_everyone_served(self):
        d = np.array([1.0, 2.0, 3.0])
        assert np.allclose(waterfill(d, 10.0), d)

    def test_over_capacity_total_is_capacity(self):
        d = np.array([4.0, 4.0, 4.0])
        alloc = waterfill(d, 6.0)
        assert alloc.sum() == pytest.approx(6.0)
        assert np.allclose(alloc, 2.0)

    def test_small_demands_kept_whole(self):
        d = np.array([1.0, 10.0, 10.0])
        alloc = waterfill(d, 11.0)
        assert alloc[0] == pytest.approx(1.0)
        assert alloc[1] == pytest.approx(5.0)
        assert alloc[2] == pytest.approx(5.0)

    def test_zero_capacity(self):
        assert np.allclose(waterfill(np.array([1.0, 2.0]), 0.0), 0.0)

    def test_empty(self):
        assert waterfill(np.zeros(0), 5.0).size == 0

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            waterfill(np.array([-1.0]), 5.0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            waterfill(np.array([1.0]), -5.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            waterfill(np.ones((2, 2)), 5.0)

    def test_order_independence(self):
        d = np.array([5.0, 1.0, 3.0, 9.0])
        alloc = waterfill(d, 10.0)
        perm = np.array([3, 1, 0, 2])
        alloc_perm = waterfill(d[perm], 10.0)
        assert np.allclose(alloc[perm], alloc_perm)

    @given(demand_arrays, st.floats(0.0, 1e10, allow_nan=False))
    @settings(max_examples=200)
    def test_feasibility_properties(self, demands, capacity):
        alloc = waterfill(demands, capacity)
        # never exceed demand
        assert np.all(alloc <= demands + 1e-6)
        # never exceed capacity
        assert alloc.sum() <= capacity * (1 + 1e-9) + 1e-6
        # non-negative
        assert np.all(alloc >= 0.0)
        # work conserving: if demand exceeds capacity, capacity is used up
        if demands.sum() > capacity:
            assert alloc.sum() == pytest.approx(capacity, rel=1e-6, abs=1e-6)
        else:
            assert np.allclose(alloc, demands)

    @given(demand_arrays, st.floats(1.0, 1e10, allow_nan=False))
    @settings(max_examples=200)
    def test_max_min_property(self, demands, capacity):
        """No fully-served thread may exceed any capped thread's level."""
        alloc = waterfill(demands, capacity)
        capped = alloc < demands - 1e-6
        if capped.any():
            level = alloc[capped].max()
            served = ~capped
            assert np.all(alloc[served] <= level + 1e-6)


class TestAllocateBandwidth:
    def test_socket_stage_binds(self):
        demands = np.array([10.0, 10.0])
        socket_of = np.array([0, 1])
        alloc = allocate_bandwidth(demands, socket_of, np.array([4.0, 100.0]), 100.0)
        assert alloc[0] == pytest.approx(4.0)
        assert alloc[1] == pytest.approx(10.0)

    def test_controller_stage_binds(self):
        demands = np.array([10.0, 10.0])
        socket_of = np.array([0, 1])
        alloc = allocate_bandwidth(demands, socket_of, np.array([100.0, 100.0]), 8.0)
        assert alloc.sum() == pytest.approx(8.0)

    def test_both_stages_respected(self):
        demands = np.array([10.0, 10.0, 10.0, 10.0])
        socket_of = np.array([0, 0, 1, 1])
        socket_cap = np.array([6.0, 30.0])
        alloc = allocate_bandwidth(demands, socket_of, socket_cap, 20.0)
        assert alloc[:2].sum() <= 6.0 + 1e-9
        assert alloc.sum() <= 20.0 + 1e-9

    def test_unknown_socket_rejected(self):
        with pytest.raises(ValueError):
            allocate_bandwidth(
                np.array([1.0]), np.array([5]), np.array([4.0]), 10.0
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allocate_bandwidth(
                np.array([1.0, 2.0]), np.array([0]), np.array([4.0]), 10.0
            )


class TestAllocatorEdgeCases:
    """Degenerate inputs both allocators must handle without special casing."""

    def test_waterfill_zero_total_demand(self):
        alloc = waterfill(np.zeros(4), 10.0)
        assert np.array_equal(alloc, np.zeros(4))

    def test_waterfill_single_thread_under_capacity(self):
        assert waterfill(np.array([3.0]), 10.0)[0] == pytest.approx(3.0)

    def test_waterfill_single_thread_over_capacity(self):
        assert waterfill(np.array([30.0]), 10.0)[0] == pytest.approx(10.0)

    def test_waterfill_demands_below_capacity_untouched(self):
        d = np.array([0.5, 1.5, 2.0])  # sums to 4.0 < 100.0
        alloc = waterfill(d, 100.0)
        assert np.allclose(alloc, d)
        assert alloc.sum() < 100.0

    def test_allocate_zero_total_demand(self):
        alloc = allocate_bandwidth(
            np.zeros(3), np.array([0, 0, 1]), np.array([5.0, 5.0]), 10.0
        )
        assert np.array_equal(alloc, np.zeros(3))

    def test_allocate_zero_controller_capacity(self):
        alloc = allocate_bandwidth(
            np.array([1.0, 2.0]), np.array([0, 1]), np.array([5.0, 5.0]), 0.0
        )
        assert np.array_equal(alloc, np.zeros(2))

    def test_allocate_zero_socket_capacity(self):
        alloc = allocate_bandwidth(
            np.array([1.0, 2.0]), np.array([0, 1]), np.array([0.0, 5.0]), 10.0
        )
        assert alloc[0] == pytest.approx(0.0)
        assert alloc[1] == pytest.approx(2.0)

    def test_allocate_single_thread(self):
        alloc = allocate_bandwidth(
            np.array([7.0]), np.array([0]), np.array([5.0]), 10.0
        )
        assert alloc[0] == pytest.approx(5.0)  # socket link binds

    def test_allocate_demands_below_capacity_untouched(self):
        d = np.array([1.0, 2.0, 3.0])
        alloc = allocate_bandwidth(
            d, np.array([0, 0, 1]), np.array([50.0, 50.0]), 100.0
        )
        assert np.allclose(alloc, d)


class TestMemoryModelConfig:
    def test_stall_grows_with_utilization(self):
        cfg = MemoryModelConfig()
        assert cfg.stall_cycles(0.9) > cfg.stall_cycles(0.1)

    def test_stall_at_zero_is_base(self):
        cfg = MemoryModelConfig(base_miss_stall_cycles=50.0)
        assert cfg.stall_cycles(0.0) == pytest.approx(50.0)

    def test_utilization_clamped(self):
        cfg = MemoryModelConfig(max_utilization=0.9)
        assert cfg.stall_cycles(5.0) == cfg.stall_cycles(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryModelConfig(base_miss_stall_cycles=0.0)
        with pytest.raises(ValueError):
            MemoryModelConfig(fixed_point_iterations=0)


class TestMemorySystem:
    def _system(self) -> MemorySystem:
        return MemorySystem(
            socket_capacity=np.array([1e8, 5e7]),
            controller_capacity=1.2e8,
        )

    def test_empty_input(self):
        sys_ = self._system()
        access, ips = sys_.solve(
            np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64)
        )
        assert access.size == 0 and ips.size == 0

    def test_compute_thread_unconstrained(self):
        sys_ = self._system()
        access, ips = sys_.solve(
            cycle_rate=np.array([2e9]),
            cpi=np.array([1.0]),
            mpi=np.array([0.0]),
            socket_of=np.array([0]),
        )
        assert access[0] == 0.0
        assert ips[0] == pytest.approx(2e9)

    def test_memory_thread_rate_consistency(self):
        """Achieved access rate == ips * mpi for memory-limited threads."""
        sys_ = self._system()
        mpi = np.array([0.05])
        access, ips = sys_.solve(
            cycle_rate=np.array([2e9]),
            cpi=np.array([1.0]),
            mpi=mpi,
            socket_of=np.array([0]),
        )
        assert access[0] == pytest.approx(ips[0] * mpi[0], rel=1e-6)

    def test_contention_reduces_per_thread_rate(self):
        sys_ = self._system()
        one, _ = sys_.solve(
            np.array([2e9]), np.array([1.0]), np.array([0.05]), np.array([0], dtype=np.int64)
        )
        sys_2 = self._system()
        n = 12
        many, _ = sys_2.solve(
            np.full(n, 2e9), np.full(n, 1.0), np.full(n, 0.05),
            np.zeros(n, dtype=np.int64),
        )
        assert many[0] < one[0]

    def test_total_never_exceeds_controller(self):
        sys_ = self._system()
        n = 30
        access, _ = sys_.solve(
            np.full(n, 2.5e9), np.full(n, 0.8), np.full(n, 0.06),
            np.array([i % 2 for i in range(n)], dtype=np.int64),
        )
        assert access.sum() <= 1.2e8 * 1.001

    def test_utilization_tracked(self):
        sys_ = self._system()
        sys_.solve(
            np.full(8, 2e9), np.full(8, 1.0), np.full(8, 0.05),
            np.zeros(8, dtype=np.int64),
        )
        assert 0.0 < sys_.last_utilization <= 1.0

    def test_faster_core_higher_demand(self):
        sys_ = self._system()
        access, _ = sys_.solve(
            np.array([2e9, 1e9]),
            np.array([1.0, 1.0]),
            np.array([0.01, 0.01]),
            np.array([0, 0], dtype=np.int64),
        )
        assert access[0] > access[1]

    def test_mismatched_lengths_rejected(self):
        sys_ = self._system()
        with pytest.raises(ValueError):
            sys_.solve(
                np.array([1e9]), np.array([1.0, 1.0]), np.array([0.01]),
                np.array([0], dtype=np.int64),
            )


@st.composite
def solve_inputs(draw):
    """Per-thread rate arrays covering compute-only through saturating load."""
    n = draw(st.integers(1, 24))
    elements = {"allow_nan": False, "allow_infinity": False}
    cycle_rate = draw(hnp.arrays(np.float64, n, elements=st.floats(1e8, 3e9, **elements)))
    cpi = draw(hnp.arrays(np.float64, n, elements=st.floats(0.3, 3.0, **elements)))
    mpi = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 0.05, **elements)))
    socket_of = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    return cycle_rate, cpi, mpi, socket_of


class TestSolveConvergence:
    """The adaptive early exit must not change what the model computes."""

    CAPACITY = 1.2e8

    def _system(self, tolerance: float, iterations: int = 40) -> MemorySystem:
        return MemorySystem(
            socket_capacity=np.array([1e8, 5e7]),
            controller_capacity=self.CAPACITY,
            config=MemoryModelConfig(
                fixed_point_tolerance=tolerance,
                fixed_point_iterations=iterations,
            ),
        )

    @settings(max_examples=60, deadline=None)
    @given(solve_inputs())
    def test_early_exit_matches_full_budget(self, inputs):
        cycle_rate, cpi, mpi, socket_of = inputs
        fast = self._system(tolerance=1e-4)
        # tolerance 0 only stops at an exact fixed point, so the iteration
        # budget is what terminates the reference solve.
        full = self._system(tolerance=0.0, iterations=200)
        a_fast, ips_fast = fast.solve(cycle_rate, cpi, mpi, socket_of)
        a_full, ips_full = full.solve(cycle_rate, cpi, mpi, socket_of)
        atol = 1e-5 * self.CAPACITY
        assert np.allclose(a_fast, a_full, rtol=1e-2, atol=atol)
        assert np.allclose(ips_fast, ips_full, rtol=1e-2, atol=atol)
        assert fast.last_iterations <= full.last_iterations

    @settings(max_examples=60, deadline=None)
    @given(solve_inputs())
    def test_iteration_count_tracked_and_bounded(self, inputs):
        cycle_rate, cpi, mpi, socket_of = inputs
        sys_ = self._system(tolerance=1e-4, iterations=40)
        sys_.solve(cycle_rate, cpi, mpi, socket_of)
        assert 1 <= sys_.last_iterations <= 40

    def test_iteration_metric_emitted(self):
        from repro.obs.metrics import MetricsRegistry

        sys_ = self._system(tolerance=1e-4)
        sys_.metrics = MetricsRegistry()
        for _ in range(3):
            sys_.solve(
                np.full(8, 2e9), np.full(8, 1.0), np.full(8, 0.05),
                np.zeros(8, dtype=np.int64),
            )
        hist = sys_.metrics.histogram("memory.solve_iterations").snapshot()
        assert hist["count"] == 3
        assert hist["min"] >= 1

    def test_warm_start_converges_faster_on_steady_load(self):
        """Repeating the same load should converge in fewer iterations."""
        sys_ = self._system(tolerance=1e-4)
        args = (
            np.full(16, 2e9), np.full(16, 1.0), np.full(16, 0.04),
            np.zeros(16, dtype=np.int64),
        )
        sys_.solve(*args)
        cold = sys_.last_iterations
        sys_.solve(*args)
        warm = sys_.last_iterations
        assert warm <= cold


@st.composite
def lane_batches(draw):
    """1–5 lanes of solve inputs (a lane may be empty), each with its own
    warm-start utilisation."""
    lanes = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()) and draw(st.booleans()):
            empty = np.zeros(0)
            inputs = (empty, empty, empty, np.zeros(0, dtype=np.int64))
        else:
            inputs = draw(solve_inputs())
        warm = draw(st.floats(0.0, 1.5, allow_nan=False))
        lanes.append((inputs, warm))
    return lanes


class TestSegmentedSolve:
    """Lanes solved together equal each lane solved alone, bit for bit,
    and every lane's allocation respects both capacity families (psim's
    ``total_allocated <= total_available``)."""

    SOCKETS = np.array([1e8, 5e7])
    CONTROLLER = 1.2e8

    def _system(self, warm: float) -> MemorySystem:
        system = MemorySystem(self.SOCKETS, self.CONTROLLER)
        system.last_utilization = warm
        return system

    @settings(max_examples=80, deadline=None)
    @given(lane_batches())
    def test_lanes_solved_together_equal_one_lane_solves(self, lanes):
        alone = []
        for inputs, warm in lanes:
            system = self._system(warm)
            access, ips = system.solve(*inputs)
            alone.append((access, ips, system.last_utilization, system.last_iterations))

        systems = [self._system(warm) for _, warm in lanes]
        bounds = np.zeros(len(lanes) + 1, dtype=np.int64)
        np.cumsum([inputs[0].size for inputs, _ in lanes], out=bounds[1:])
        stacked = [np.concatenate(cols) for cols in zip(*(i for i, _ in lanes))]
        access, ips = systems[0].solve(*stacked, bounds=bounds, lanes=systems)

        # The water level is a floating-point quotient, so a capped total
        # may exceed its capacity by rounding.
        tol = 1.0 + 1e-9
        for r, (inputs, _) in enumerate(lanes):
            seg = slice(bounds[r], bounds[r + 1])
            a, i, util, iters = alone[r]
            assert access[seg].tobytes() == a.tobytes()
            assert ips[seg].tobytes() == i.tobytes()
            assert systems[r].last_utilization == util
            assert systems[r].last_iterations == iters
            per_socket = np.bincount(
                inputs[3], weights=access[seg], minlength=self.SOCKETS.size
            )
            assert np.all(per_socket <= self.SOCKETS * tol)
            assert access[seg].sum() <= self.CONTROLLER * tol

    def test_empty_lane_keeps_its_state(self):
        busy, idle = self._system(0.2), self._system(0.7)
        idle.last_iterations = 3
        n = 4
        busy.solve(
            np.full(n, 2e9), np.ones(n), np.full(n, 0.02),
            np.zeros(n, dtype=np.int64), bounds=[0, n, n], lanes=[busy, idle],
        )
        assert busy.last_iterations >= 1
        assert (idle.last_utilization, idle.last_iterations) == (0.7, 3)


# --------------------------------------------------------------------------
# The bit-for-bit reference of `MemorySystem.solve`: the two allocators
# written with a stable argsort and a scatter back (input checks left
# out), and the fixed point run one lane at a time over them, each
# iteration calling the two-stage allocator.  Lanes solved together equal
# lanes solved alone (`TestSegmentedSolve`).


def reference_waterfill(demands: np.ndarray, capacity: float) -> np.ndarray:
    demands = np.asarray(demands, dtype=np.float64)
    capacity = float(capacity)
    n = demands.size
    if n == 0:
        return demands.copy()
    total = demands.sum()
    if total <= capacity:
        return demands.copy()
    order = np.argsort(demands, kind="stable")
    sorted_d = demands[order]
    prefix = np.concatenate(([0.0], np.cumsum(sorted_d)))
    remaining = n - np.arange(n)
    levels = (capacity - prefix[:-1]) / remaining
    capped = levels < sorted_d
    if not capped.any():
        return demands * (capacity / total)
    i = int(np.argmax(capped))
    level = max(levels[i], 0.0)
    alloc = np.empty_like(demands)
    alloc[order] = np.minimum(sorted_d, level)
    return alloc


def reference_allocate(demands, socket_of, socket_capacity, controller_capacity):
    socket_demand = np.bincount(
        socket_of, weights=demands, minlength=socket_capacity.size
    )
    congested = np.flatnonzero(socket_demand > socket_capacity)
    if congested.size == 0:
        return reference_waterfill(demands, controller_capacity)
    capped = demands.copy()
    for sid in congested:
        mask = socket_of == sid
        capped[mask] = reference_waterfill(
            demands[mask], float(socket_capacity[sid])
        )
    return reference_waterfill(capped, controller_capacity)


def reference_lane(system, cycle_rate, cpi, mpi, socket_of):
    """One lane's fixed point; updates ``system`` as `solve` does."""
    config = system.config
    caps, controller = system.socket_capacity, system.controller_capacity
    tol = config.fixed_point_tolerance
    rho = system.last_utilization
    rho_prev = h_prev = 0.0
    iterations = config.fixed_point_iterations
    stall = config.stall_cycles(rho)
    ips_mem = np.full(cycle_rate.size, np.inf)
    for k in range(1, config.fixed_point_iterations + 1):
        ips0 = cycle_rate / (cpi + mpi * stall)
        demand = ips0 * mpi
        socket_demand = np.bincount(socket_of, weights=demand, minlength=caps.size)
        if (socket_demand > caps).any():
            access = reference_allocate(demand, socket_of, caps, controller)
        elif demand.sum() > controller:
            access = reference_waterfill(demand, controller)
        else:
            access = demand
        new_rho = float(access.sum() / controller)
        np.divide(access, mpi, out=ips_mem, where=mpi > 0.0)
        ips = np.minimum(ips0, ips_mem)
        h = new_rho - rho
        if abs(h) <= tol * max(abs(new_rho), abs(rho)):
            iterations = k
            break
        if k > 1 and h != h_prev:
            candidate = rho - h * (rho - rho_prev) / (h - h_prev)
        else:
            candidate = 0.5 * rho + 0.5 * new_rho
        if not 0.0 <= candidate <= 2.0:
            candidate = 0.5 * rho + 0.5 * new_rho
        rho_prev, h_prev, rho = rho, h, candidate
        stall = config.stall_cycles(candidate)
    system.last_utilization = new_rho
    system.last_iterations = iterations
    return access, ips


#: rates drawn from a few fixed values (ties) or anywhere in range
RATES = st.sampled_from([0.0, 1e9, 2e9]) | st.floats(1e8, 3e9)
CPIS = st.sampled_from([1.0]) | st.floats(0.3, 3.0)
MPIS = st.sampled_from([0.0, 0.02]) | st.floats(0.0, 0.05)
CAPS = st.sampled_from([0.0, 3e7]) | st.floats(1e7, 3e8)


@st.composite
def fixed_point_cases(draw):
    """A machine, a solver config and 1–6 lanes of ragged length (empty
    lanes included).  A socket link or the controller may be sized to
    one lane's first-iteration demand: its pairwise sum or the
    thread-order running sum a ``bincount`` gives, or one step below
    either (a fill that barely binds, or a segment the ``bincount``
    flags whose own sum fits)."""
    n_sockets = draw(st.integers(1, 3))
    config = MemoryModelConfig(
        fixed_point_tolerance=draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        fixed_point_iterations=draw(st.integers(1, 10)),
    )
    lanes = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, 16))
        lanes.append((
            draw(hnp.arrays(np.float64, k, elements=RATES)),
            draw(hnp.arrays(np.float64, k, elements=CPIS)),
            draw(hnp.arrays(np.float64, k, elements=MPIS)),
            draw(hnp.arrays(np.int64, k, elements=st.integers(0, n_sockets - 1))),
            draw(st.floats(0.0, 1.5)),
        ))
    sockets = draw(hnp.arrays(np.float64, n_sockets, elements=CAPS))
    controller = draw(st.floats(5e7, 4e8))
    busy = [lane for lane in lanes if lane[0].size]
    pin = draw(st.sampled_from([None, "socket", "controller"]))
    if busy and pin:
        cycle, cpi, mpi, socket_of, warm = busy[0]
        demand = cycle / (cpi + mpi * config.stall_cycles(warm)) * mpi
        if pin == "socket":
            demand = demand[socket_of == socket_of[0]]
        total = draw(st.sampled_from([demand.sum(), np.add.accumulate(demand)[-1]]))
        if draw(st.booleans()):
            total = np.nextafter(total, 0.0)
        if pin == "socket":
            sockets[socket_of[0]] = max(total, 0.0)
        elif total > 0.0:
            controller = float(total)
    return config, sockets, controller, lanes


class TestSolveEqualsReference:
    """The solver's lean fixed point (checks once, one unchecked fill per
    congested segment) equals the reference loop over lone allocator
    calls, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(fixed_point_cases())
    def test_every_output_bit_identical(self, case):
        config, sockets, controller, lanes = case
        reference = [MemorySystem(sockets, controller, config) for _ in lanes]
        systems = [MemorySystem(sockets, controller, config) for _ in lanes]
        for ref, system, lane in zip(reference, systems, lanes):
            ref.last_utilization = system.last_utilization = lane[4]
        ref_access, ref_ips = [], []
        for ref, (cycle, cpi, mpi, socket_of, _) in zip(reference, lanes):
            if cycle.size:
                a, i = reference_lane(ref, cycle, cpi, mpi, socket_of)
                ref_access.append(a)
                ref_ips.append(i)

        bounds = np.zeros(len(lanes) + 1, dtype=np.int64)
        np.cumsum([lane[0].size for lane in lanes], out=bounds[1:])
        stacked = [np.concatenate(cols) for cols in list(zip(*lanes))[:4]]
        access, ips = systems[0].solve(*stacked, bounds=bounds, lanes=systems)

        expected = np.concatenate([np.zeros(0)] + ref_access)
        assert access.tobytes() == expected.tobytes()
        assert ips.tobytes() == np.concatenate([np.zeros(0)] + ref_ips).tobytes()
        for ref, system in zip(reference, systems):
            assert system.last_utilization == ref.last_utilization
            assert system.last_iterations == ref.last_iterations

    @settings(max_examples=300, deadline=None)
    @given(
        demand_arrays | hnp.arrays(np.float64, st.integers(0, 12),
                                   elements=st.sampled_from([0.0, 1.0, 2.5])),
        st.sampled_from(["free", "at", "below"]),
        st.floats(0.0, 1e10),
    )
    def test_public_allocators_equal_reference(self, demands, where, capacity):
        # Just below the total, float rounding can leave no demand capped:
        # the proportional fallback.
        total = demands.sum()
        if where == "at":
            capacity = float(total)
        elif where == "below":
            capacity = float(np.nextafter(total, 0.0))
        alloc = waterfill(demands, capacity)
        assert alloc.tobytes() == reference_waterfill(demands, capacity).tobytes()
        assert alloc is not demands
        socket_of = np.arange(demands.size) % 2
        sockets = np.array([capacity / 3, capacity / 2])
        assert (
            allocate_bandwidth(demands, socket_of, sockets, capacity).tobytes()
            == reference_allocate(demands, socket_of, sockets, capacity).tobytes()
        )

    @pytest.mark.parametrize(
        "capacity_at", ["below_pairwise", "below_running", "at_pairwise"]
    )
    def test_segment_total_is_its_pairwise_sum(self, capacity_at):
        """One lane on one socket, one iteration (its fill is the result),
        demands whose pairwise sum is below their thread-order running sum
        (the ``bincount`` that flags the segment):

        * a link one step below the pairwise sum: the fill falls back to
          scaling by capacity / total, with the pairwise total;
        * a link one step below the running sum: flagged, but it fits;
        * link and controller exactly at the pairwise sum: no fill, where
          a fill would lower the largest demand.
        """
        config = MemoryModelConfig(fixed_point_iterations=1)
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            cycle = rng.uniform(1e8, 3e9, 16)
            cpi, mpi = np.ones(16), np.full(16, 0.02)
            demand = cycle / (cpi + mpi * config.stall_cycles(0.0)) * mpi
            total, running = demand.sum(), np.add.accumulate(demand)[-1]
            controller = 10 * total
            if capacity_at == "below_pairwise":
                capacity = np.nextafter(total, 0.0)
                fallback = demand * (capacity / total)
                filled = reference_waterfill(demand, capacity)
                found = filled.tobytes() == fallback.tobytes()
            elif capacity_at == "below_running":
                capacity = np.nextafter(running, 0.0)
                found = total < capacity
            else:
                capacity = controller = total
                found = np.add.accumulate(np.sort(demand))[-1] > total
            if running > total and found:
                break
        else:
            pytest.fail("no demand vector with the wanted sums")
        reference = MemorySystem(np.array([capacity]), controller, config)
        system = MemorySystem(np.array([capacity]), controller, config)
        socket_of = np.zeros(16, dtype=np.int64)
        access, ips = reference_lane(reference, cycle, cpi, mpi, socket_of)
        got_access, got_ips = system.solve(cycle, cpi, mpi, socket_of)
        assert got_access.tobytes() == access.tobytes()
        assert got_ips.tobytes() == ips.tobytes()
        assert system.last_utilization == reference.last_utilization

    def test_solver_calls_no_public_allocator(self, monkeypatch):
        import repro.sim.memory as memory

        def refuse(*args, **kwargs):
            raise AssertionError("the solver called a public allocator")

        monkeypatch.setattr(memory, "waterfill", refuse)
        monkeypatch.setattr(memory, "allocate_bandwidth", refuse)
        system = MemorySystem(np.array([1e7, 1e7]), 1.5e7)
        n = 8
        access, _ = system.solve(
            np.full(n, 2e9), np.ones(n), np.full(n, 0.02),
            np.arange(n) % 2,
        )
        assert access.sum() <= 1.5e7 * (1 + 1e-9)

    def test_negative_inputs_rejected_once(self):
        system = MemorySystem(np.array([1e8]), 1e8)
        with pytest.raises(ValueError, match="non-negative"):
            system.solve(
                np.array([1e9]), np.array([1.0]), np.array([-0.01]),
                np.array([0]),
            )

    def test_negative_socket_capacity_rejected(self):
        with pytest.raises(ValueError, match="socket_capacity"):
            MemorySystem(np.array([1e8, -1.0]), 1e8)
