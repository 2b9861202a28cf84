"""Cross-cutting property-based tests on the full stack.

These use hypothesis to drive the simulator with randomly composed
workloads and machines, asserting the invariants that must hold for *any*
input: completion, work conservation, metric boundedness, and scheduler
action legality.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DikeConfig
from repro.core.dike import DikeScheduler
from repro.metrics.fairness import fairness
from repro.sim.engine import SimulationEngine
from repro.sim.memory import MemorySystem, waterfill
from repro.sim.topology import SocketSpec, Topology
from repro.schedulers.dio import DIOScheduler
from repro.schedulers.static import StaticScheduler
from repro.workloads.generator import workload_with_mix

SLOW_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def machines(draw):
    n_fast = draw(st.integers(1, 3))
    n_slow = draw(st.integers(1, 3))
    return Topology(
        (
            SocketSpec(2.4, n_fast, 2, interconnect_gbps=draw(st.sampled_from([6.0, 12.0, 24.0]))),
            SocketSpec(1.2, n_slow, 2, interconnect_gbps=draw(st.sampled_from([3.0, 6.0]))),
        ),
        memory_controller_gbps=draw(st.sampled_from([8.0, 16.0, 30.0])),
    )


@st.composite
def mixes(draw):
    n_m = draw(st.integers(0, 2))
    n_c = draw(st.integers(0, 2))
    if n_m + n_c == 0:
        n_m = 1
    return workload_with_mix(
        n_m, n_c, seed=draw(st.integers(0, 100)),
        include_kmeans=draw(st.booleans()), threads_per_app=2,
    )


class TestEndToEndInvariants:
    @given(machines(), mixes(), st.integers(0, 1000))
    @SLOW_SETTINGS
    def test_any_mix_completes_under_dike(self, topo, spec, seed):
        groups = spec.build(seed=seed, work_scale=0.004)
        engine = SimulationEngine(
            topology=topo, groups=groups, scheduler=DikeScheduler(),
            seed=seed, workload_name=spec.name, max_time_s=600.0,
        )
        result = engine.run()
        assert not result.info["truncated"]
        # work conservation
        for g in groups:
            for t in g.threads:
                assert engine.state.work_done[t.tid] == pytest.approx(
                    t.trace.total_work, rel=1e-9
                )
        # fairness metric bounded
        f = fairness(result)
        assert math.isnan(f) or f <= 1.0

    @given(machines(), mixes(), st.integers(0, 1000))
    @SLOW_SETTINGS
    def test_dio_action_legality(self, topo, spec, seed):
        """DIO's all-pairs swaps must always be legal for the engine."""
        groups = spec.build(seed=seed, work_scale=0.004)
        engine = SimulationEngine(
            topology=topo, groups=groups,
            scheduler=DIOScheduler(quantum_s=0.2),
            seed=seed, workload_name=spec.name, max_time_s=600.0,
        )
        result = engine.run()  # raises on illegal actions
        assert result.migration_count == 2 * result.swap_count

    @given(mixes(), st.integers(0, 50))
    @SLOW_SETTINGS
    def test_determinism_across_runs(self, spec, seed):
        topo = Topology(
            (SocketSpec(2.4, 2, 2, 8.0), SocketSpec(1.2, 2, 2, 4.0)),
            memory_controller_gbps=10.0,
        )

        def once():
            groups = spec.build(seed=seed, work_scale=0.004)
            return SimulationEngine(
                topology=topo, groups=groups, scheduler=DikeScheduler(),
                seed=seed, workload_name=spec.name,
            ).run()

        a, b = once(), once()
        assert a.makespan_s == b.makespan_s
        assert a.swap_count == b.swap_count


class TestMemoryMonotonicity:
    @given(
        st.lists(st.floats(1e5, 1e8), min_size=1, max_size=12),
        st.floats(1e6, 1e9),
        st.floats(1.1, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_more_capacity_never_hurts_anyone(self, demands, capacity, factor):
        d = np.asarray(demands)
        before = waterfill(d, capacity)
        after = waterfill(d, capacity * factor)
        assert np.all(after >= before - 1e-6)

    @given(st.integers(1, 16), st.floats(1e7, 1e9))
    @settings(max_examples=50, deadline=None)
    def test_adding_threads_never_helps_incumbents(self, n, capacity):
        sys_a = MemorySystem(np.array([capacity]), capacity)
        cycle = np.full(n, 2e9)
        cpi = np.full(n, 1.0)
        mpi = np.full(n, 0.05)
        soc = np.zeros(n, dtype=np.int64)
        a, _ = sys_a.solve(cycle, cpi, mpi, soc)
        sys_b = MemorySystem(np.array([capacity]), capacity)
        b, _ = sys_b.solve(
            np.full(n + 4, 2e9), np.full(n + 4, 1.0),
            np.full(n + 4, 0.05), np.zeros(n + 4, dtype=np.int64),
        )
        assert b[0] <= a[0] * 1.001


class TestConfigSpaceInvariants:
    @given(
        st.sampled_from([2, 4, 8, 16]),
        st.sampled_from([0.1, 0.2, 0.5, 1.0]),
        st.integers(0, 30),
    )
    @SLOW_SETTINGS
    def test_every_configuration_runs(self, swap_size, qlen, seed):
        spec = workload_with_mix(1, 1, seed=seed, threads_per_app=2)
        topo = Topology(
            (SocketSpec(2.4, 2, 2, 8.0), SocketSpec(1.2, 2, 2, 4.0)),
            memory_controller_gbps=10.0,
        )
        cfg = DikeConfig(swap_size=swap_size, quanta_length_s=qlen)
        groups = spec.build(seed=seed, work_scale=0.004)
        result = SimulationEngine(
            topology=topo, groups=groups, scheduler=DikeScheduler(cfg),
            seed=seed, workload_name=spec.name,
        ).run()
        assert not result.info["truncated"]
