"""Tests for the scheduling daemon (fake clock, fake backends)."""

from __future__ import annotations

import pytest

from repro.core.dike import DikeScheduler
from repro.platform.daemon import SchedulingDaemon
from repro.platform.iface import AffinityBackend, CounterWindow, PerfBackend
from repro.schedulers.base import Placement
from repro.schedulers.dio import DIOScheduler
from repro.schedulers.static import StaticScheduler
from repro.sim.topology import SocketSpec, Topology


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class FakePerf(PerfBackend):
    """Serves scripted per-thread rates: tid -> (accesses/s, miss ratio)."""

    def __init__(self, profiles: dict[int, tuple[float, float]]) -> None:
        self.profiles = dict(profiles)
        self.sample_calls = 0

    def sample(self, tids, window_s):
        self.sample_calls += 1
        out = []
        for tid in tids:
            rate, miss = self.profiles.get(tid, (0.0, 0.0))
            misses = rate * window_s
            accesses = misses / miss if miss > 0 else 0.0
            out.append(
                CounterWindow(
                    tid=tid,
                    window_s=window_s,
                    instructions=1e8 * window_s,
                    llc_accesses=accesses,
                    llc_misses=misses,
                )
            )
        return out

    def available(self) -> bool:
        return True


class FakeAffinity(AffinityBackend):
    def __init__(self, n: int) -> None:
        self.n = n
        self.map: dict[int, set[int]] = {}
        self.calls: list[tuple[int, set[int]]] = []

    def set_affinity(self, tid, cores):
        self.map[tid] = set(cores)
        self.calls.append((tid, set(cores)))

    def get_affinity(self, tid):
        return set(self.map.get(tid, {0}))

    def n_cores(self) -> int:
        return self.n


@pytest.fixture
def topo() -> Topology:
    return Topology(
        (SocketSpec(2.0, 2, 2, 8.0), SocketSpec(1.0, 2, 2, 3.0)),
        memory_controller_gbps=10.0,
    )


def make_daemon(scheduler, topo, profiles=None):
    threads = {
        100: ("jacobi", 0),
        101: ("jacobi", 0),
        102: ("srad", 1),
        103: ("srad", 1),
    }
    profiles = profiles or {
        100: (2e6, 0.4),
        101: (1e6, 0.4),
        102: (5e4, 0.05),
        103: (4e4, 0.05),
    }
    clock = FakeClock()
    perf = FakePerf(profiles)
    affinity = FakeAffinity(topo.n_vcores)
    daemon = SchedulingDaemon(
        scheduler, perf, affinity, topo, threads,
        clock=clock, sleep=clock.sleep,
    )
    return daemon, clock, perf, affinity


class TestDaemonBasics:
    def test_initial_placement_pins_threads(self, topo):
        daemon, _, _, affinity = make_daemon(StaticScheduler(), topo)
        placement = daemon.apply_initial_placement()
        assert set(placement) >= {100, 101, 102, 103}
        assert len(affinity.calls) == 4

    def test_quantum_advances_fake_clock(self, topo):
        daemon, clock, _, _ = make_daemon(StaticScheduler(quantum_s=0.5), topo)
        daemon.run_quantum()
        assert clock.now == pytest.approx(0.5)

    def test_run_duration(self, topo):
        daemon, clock, perf, _ = make_daemon(StaticScheduler(quantum_s=0.5), topo)
        stats = daemon.run(duration_s=2.0)
        assert stats.quanta == 4
        assert perf.sample_calls == 4

    def test_counters_carry_sampled_rates(self, topo):
        captured = {}

        class Capture(StaticScheduler):
            def decide(self, counters, placement):
                captured["counters"] = counters
                return []

        daemon, _, _, _ = make_daemon(Capture(), topo)
        daemon.apply_initial_placement()
        daemon.run_quantum()
        counters = captured["counters"]
        rates = counters.access_rates()
        assert rates[100] == pytest.approx(2e6)
        assert counters.miss_rates()[102] == pytest.approx(0.05)

    def test_decide_gets_a_placement_sorted_by_tid(self, topo):
        seen = []

        class Capture(StaticScheduler):
            def decide(self, counters, placement):
                seen.append(placement)
                return []

        threads = {103: ("srad", 1), 100: ("jacobi", 0), 102: ("srad", 1)}
        clock = FakeClock()
        affinity = FakeAffinity(topo.n_vcores)
        daemon = SchedulingDaemon(
            Capture(), FakePerf({}), affinity, topo, threads,
            clock=clock, sleep=clock.sleep,
        )
        daemon.apply_initial_placement()
        daemon.run_quantum()
        (placement,) = seen
        assert isinstance(placement, Placement)
        assert placement.tids.tolist() == [100, 102, 103]
        assert dict(placement) == {t: min(affinity.map[t]) for t in threads}


class TestDaemonEnforcement:
    def test_dio_swaps_through_affinity(self, topo):
        daemon, _, _, affinity = make_daemon(DIOScheduler(quantum_s=1.0), topo)
        daemon.apply_initial_placement()
        before = {tid: min(affinity.map[tid]) for tid in affinity.map}
        daemon.run_quantum()
        after = {tid: min(affinity.map[tid]) for tid in affinity.map}
        assert daemon.stats.swaps == 2  # 4 threads -> 2 pairs
        # hottest (100) exchanged cores with coldest (103)
        assert after[100] == before[103]
        assert after[103] == before[100]

    def test_dike_runs_against_backends(self, topo):
        daemon, _, _, _ = make_daemon(DikeScheduler(), topo)
        daemon.apply_initial_placement()
        stats = daemon.run(duration_s=5.0)
        assert stats.quanta == 10
        assert stats.enforce_failures == 0

    def test_suspend_requests_surfaced_not_enforced(self, topo):
        from repro.schedulers.base import Suspend

        class Suspender(StaticScheduler):
            def decide(self, counters, placement):
                return [Suspend(tid=100)]

        daemon, _, _, affinity = make_daemon(Suspender(), topo)
        daemon.apply_initial_placement()
        calls_before = len(affinity.calls)
        daemon.run_quantum()
        assert daemon.stats.suspend_requests == 1
        assert len(affinity.calls) == calls_before  # no affinity change

    def test_action_log_recorded(self, topo):
        daemon, _, _, _ = make_daemon(DIOScheduler(quantum_s=1.0), topo)
        daemon.apply_initial_placement()
        daemon.run_quantum()
        assert len(daemon.stats.actions) == 2
        t, action = daemon.stats.actions[0]
        assert t == pytest.approx(1.0)
