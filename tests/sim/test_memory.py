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
