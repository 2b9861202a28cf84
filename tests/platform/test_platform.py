"""Tests for the platform abstraction: sim backend and Linux backend."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import DikeConfig
from repro.core.observer import Observer
from repro.platform.iface import CounterWindow
from repro.platform.linux import (
    LinuxAffinityBackend,
    ProcStatPerfBackend,
    linux_caps,
    parse_proc_stat,
)
from repro.platform.simbackend import SimAffinityBackend, SimPerfBackend, sim_caps
from repro.sim.counters import QuantumCounters, ThreadSample


class TestCounterWindow:
    def test_rates(self):
        w = CounterWindow(tid=1, window_s=0.5, instructions=1e8,
                          llc_accesses=1e7, llc_misses=2e6)
        assert w.access_rate == pytest.approx(4e6)
        assert w.miss_rate == pytest.approx(0.2)

    def test_zero_window(self):
        w = CounterWindow(tid=1, window_s=0.0, instructions=0,
                          llc_accesses=0, llc_misses=0)
        assert w.access_rate == 0.0
        assert w.miss_rate == 0.0


class TestSimBackend:
    def _counters(self) -> QuantumCounters:
        return QuantumCounters(
            quantum_index=0, time_s=0.5, quantum_length_s=0.5,
            samples=(
                ThreadSample(1, 0, 1e8, 1e7, 2e6, 0.5),
                ThreadSample(2, 1, 2e8, 2e7, 1e6, 0.5),
            ),
            core_bandwidth=np.zeros(4),
        )

    def test_perf_sample_after_publish(self):
        backend = SimPerfBackend()
        assert backend.sample([1], 0.5) == []
        backend.publish(self._counters())
        windows = backend.sample([1, 2], 0.5)
        assert {w.tid for w in windows} == {1, 2}
        assert windows[0].miss_rate == pytest.approx(0.2)

    def test_perf_filters_tids(self):
        backend = SimPerfBackend()
        backend.publish(self._counters())
        assert [w.tid for w in backend.sample([2], 0.5)] == [2]

    def test_perf_available(self):
        assert SimPerfBackend().available()

    def test_affinity_roundtrip(self):
        backend = SimAffinityBackend(n_vcores=8)
        backend.set_affinity(3, {2})
        assert backend.get_affinity(3) == {2}

    def test_affinity_default_is_all_cores(self):
        backend = SimAffinityBackend(n_vcores=4)
        assert backend.get_affinity(99) == {0, 1, 2, 3}

    def test_affinity_validation(self):
        backend = SimAffinityBackend(n_vcores=4)
        with pytest.raises(ValueError):
            backend.set_affinity(0, {9})
        with pytest.raises(ValueError):
            backend.set_affinity(0, set())

    def test_pending_drains(self):
        backend = SimAffinityBackend(n_vcores=4)
        backend.set_affinity(0, {1})
        assert backend.pending() == {0: {1}}
        assert backend.pending() == {}

    def test_caps(self):
        caps = sim_caps()
        assert caps.perf_counters and caps.affinity_control


class TestObserverOnDaemonCounters:
    def test_unreadable_affinity_vcore_probes_nothing(self):
        # SchedulingDaemon._to_counters reports vcore=-1 for a thread whose
        # affinity read failed.  Its memory-intensive readings must not
        # update CoreBW of any core (-1 once indexed the last vcore).
        counters = QuantumCounters(
            quantum_index=0, time_s=0.5, quantum_length_s=0.5,
            samples=(
                ThreadSample(1, -1, 1e8, 1e7, 5e6, 0.5),  # M, core unknown
                ThreadSample(2, 0, 1e8, 1e7, 4e6, 0.5),   # M on vcore 0
            ),
            core_bandwidth=np.array([8e6, 0.0, 0.0, 3e6]),
        )
        report = Observer(DikeConfig(), n_vcores=4).update(counters)
        assert report.tids.tolist() == [1, 2]
        assert report.is_m_by_tid[[1, 2]].all()
        assert report.core_bw_of(0) == 8e6
        # vcore 3 stays unprobed: it reads the optimistic best probe
        assert report.core_bw_of(3) == 8e6
        assert not report.high_by_vcore.any()


class TestProcStatParsing:
    def test_simple_line(self):
        line = (
            "1234 (myproc) S 1 1234 1234 0 -1 4194560 500 0 0 0 "
            "150 50 0 0 20 0 1 0 100 1000000 100 18446744073709551615"
        )
        utime, stime = parse_proc_stat(line)
        hz = os.sysconf("SC_CLK_TCK")
        assert utime == pytest.approx(150 / hz)
        assert stime == pytest.approx(50 / hz)

    def test_comm_with_spaces_and_parens(self):
        line = (
            "99 (evil (proc) name) R 1 99 99 0 -1 4194560 500 0 0 0 "
            "30 10 0 0 20 0 1 0 100 1000000 100 18446744073709551615"
        )
        utime, stime = parse_proc_stat(line)
        hz = os.sysconf("SC_CLK_TCK")
        assert utime == pytest.approx(30 / hz)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_proc_stat("garbage with no paren")
        with pytest.raises(ValueError):
            parse_proc_stat("1 (x) S 1 2")


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no sched affinity API"
)
class TestLinuxLive:
    def test_get_own_affinity(self):
        backend = LinuxAffinityBackend()
        cores = backend.get_affinity(0)
        assert cores
        assert backend.n_cores() >= 1

    def test_set_affinity_roundtrip(self):
        backend = LinuxAffinityBackend()
        original = backend.get_affinity(0)
        try:
            one = {min(original)}
            backend.set_affinity(0, one)
            assert backend.get_affinity(0) == one
        finally:
            backend.set_affinity(0, original)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            LinuxAffinityBackend().set_affinity(0, set())

    def test_self_sampling(self):
        backend = ProcStatPerfBackend()
        tid = os.getpid()
        assert backend.sample([tid], 0.1) == []  # first sample primes
        # burn a little CPU so the delta is visible
        x = 0
        for i in range(200000):
            x += i * i
        windows = backend.sample([tid], 0.1)
        assert len(windows) <= 1  # may be 0 if clock tick didn't advance

    def test_not_available_as_perf(self):
        assert not ProcStatPerfBackend().available()

    def test_caps_report_degradation(self):
        caps = linux_caps()
        assert not caps.perf_counters
