"""Property-based tests for the scheduling daemon with arbitrary profiles."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dike import DikeScheduler
from repro.platform.daemon import SchedulingDaemon
from repro.schedulers.dio import DIOScheduler
from repro.sim.topology import SocketSpec, Topology

from test_daemon import FakeAffinity, FakeClock, FakePerf


@st.composite
def thread_profiles(draw):
    n = draw(st.integers(2, 10))
    profiles = {}
    threads = {}
    for i in range(n):
        tid = 100 + i
        rate = draw(st.floats(1e3, 5e6))
        miss = draw(st.floats(0.01, 0.8))
        profiles[tid] = (rate, miss)
        threads[tid] = (f"app{i % 3}", i % 3)
    return threads, profiles


TOPO = Topology(
    (SocketSpec(2.0, 3, 2, 10.0), SocketSpec(1.0, 3, 2, 4.0)),
    memory_controller_gbps=12.0,
)


class TestDaemonProperties:
    @given(thread_profiles(), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_dio_daemon_invariants(self, tp, n_quanta):
        threads, profiles = tp
        clock = FakeClock()
        daemon = SchedulingDaemon(
            DIOScheduler(quantum_s=1.0),
            FakePerf(profiles),
            FakeAffinity(TOPO.n_vcores),
            TOPO,
            threads,
            clock=clock,
            sleep=clock.sleep,
        )
        daemon.apply_initial_placement()
        for _ in range(n_quanta):
            daemon.run_quantum()
        stats = daemon.stats
        assert stats.quanta == n_quanta
        assert stats.enforce_failures == 0
        # DIO swaps floor(n/2) pairs per quantum
        assert stats.swaps == (len(threads) // 2) * n_quanta
        # every managed thread still has a single-core affinity
        affinity = daemon.affinity
        for tid in threads:
            assert len(affinity.get_affinity(tid)) == 1

    @given(thread_profiles())
    @settings(max_examples=25, deadline=None)
    def test_dike_daemon_never_crashes(self, tp):
        threads, profiles = tp
        clock = FakeClock()
        daemon = SchedulingDaemon(
            DikeScheduler(),
            FakePerf(profiles),
            FakeAffinity(TOPO.n_vcores),
            TOPO,
            threads,
            clock=clock,
            sleep=clock.sleep,
        )
        daemon.apply_initial_placement()
        stats = daemon.run(duration_s=3.0)
        assert stats.quanta == 6  # 3s at 500ms quanta
        assert stats.enforce_failures == 0

    @given(thread_profiles())
    @settings(max_examples=25, deadline=None)
    def test_placements_stay_on_machine(self, tp):
        threads, profiles = tp
        clock = FakeClock()
        daemon = SchedulingDaemon(
            DIOScheduler(quantum_s=1.0),
            FakePerf(profiles),
            FakeAffinity(TOPO.n_vcores),
            TOPO,
            threads,
            clock=clock,
            sleep=clock.sleep,
        )
        daemon.apply_initial_placement()
        daemon.run_quantum()
        for tid in threads:
            cores = daemon.affinity.get_affinity(tid)
            assert all(0 <= c < TOPO.n_vcores for c in cores)
