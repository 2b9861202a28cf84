"""Tests for the hardware-counter emulation objects."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.counters import QuantumCounters, ThreadSample


def sample(tid=0, vcore=0, instr=1e8, acc=5e6, miss=2e6, rt=0.5) -> ThreadSample:
    return ThreadSample(
        tid=tid, vcore=vcore, instructions=instr,
        llc_accesses=acc, llc_misses=miss, runtime_s=rt,
    )


class TestThreadSample:
    def test_access_rate(self):
        assert sample(miss=2e6, rt=0.5).access_rate == pytest.approx(4e6)

    def test_miss_rate(self):
        assert sample(acc=5e6, miss=2e6).miss_rate == pytest.approx(0.4)

    def test_ips(self):
        assert sample(instr=1e8, rt=0.5).ips == pytest.approx(2e8)

    def test_zero_runtime_rates(self):
        s = sample(rt=0.0)
        assert s.access_rate == 0.0
        assert s.ips == 0.0

    def test_zero_accesses_miss_rate(self):
        assert sample(acc=0.0, miss=0.0).miss_rate == 0.0

    def test_miss_rate_clamped_to_one(self):
        # Multiplicative counter noise can push misses above accesses;
        # the ratio must stay a ratio.
        assert sample(acc=1e6, miss=1.2e6).miss_rate == 1.0

    def test_negative_misses_clamped_to_zero(self):
        s = sample(acc=1e6, miss=-5.0)
        assert s.miss_rate == 0.0
        assert s.access_rate == 0.0


class TestQuantumCounters:
    def _counters(self) -> QuantumCounters:
        return QuantumCounters(
            quantum_index=3,
            time_s=2.0,
            quantum_length_s=0.5,
            samples=(sample(tid=1), sample(tid=2, miss=1e6)),
            core_bandwidth=np.zeros(4),
        )

    def test_sample_for(self):
        c = self._counters()
        assert c.sample_for(1).tid == 1
        assert c.sample_for(99) is None

    def test_tids(self):
        assert self._counters().tids == (1, 2)

    def test_access_rates_map(self):
        rates = self._counters().access_rates()
        assert set(rates) == {1, 2}
        assert rates[1] == pytest.approx(4e6)

    def test_miss_rates_map(self):
        rates = self._counters().miss_rates()
        assert rates[2] == pytest.approx(0.2)

    def test_barrier_hit_gives_two_rows_and_views_take_the_last(self):
        # A thread that hits a barrier mid-quantum is reported twice: its
        # active readings, then an idle zero row.  Every per-tid view
        # reports the last row.
        active = ThreadSample(1, 0, 1e8, 5e6, 2e6, 0.5, cache_mb=3.0)
        idle = ThreadSample(1, 0, 0.0, 0.0, 0.0, 0.5)
        c = QuantumCounters(
            quantum_index=0,
            time_s=0.5,
            quantum_length_s=0.5,
            samples=(active, sample(tid=2), idle),
            core_bandwidth=np.zeros(4),
        )
        assert c.tids == (1, 2, 1)
        assert c.sample_for(1) is idle
        assert c.access_rates() == {1: 0.0, 2: pytest.approx(4e6)}
        assert c.miss_rates()[1] == 0.0
        assert c.cache_occupancy()[1] == 0.0
        assert list(c.access_rates()) == [1, 2]  # first-seen order


def thread_samples():
    """Rows including zero accesses/runtime and negative noisy misses."""
    zero_or = lambda s: st.one_of(st.just(0.0), s)  # noqa: E731
    return st.builds(
        ThreadSample,
        tid=st.integers(0, 5),
        vcore=st.integers(0, 3),
        instructions=zero_or(st.floats(1.0, 1e9)),
        llc_accesses=zero_or(st.floats(1e-3, 1e8)),
        llc_misses=st.floats(-1e4, 1e8),
        runtime_s=zero_or(st.floats(1e-3, 1.0)),
        cache_mb=zero_or(st.floats(1e-3, 30.0)),
    )


class TestColumns:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(thread_samples(), max_size=10))
    def test_columns_match_sample_properties_bit_for_bit(self, samples):
        c = QuantumCounters(
            quantum_index=0,
            time_s=0.5,
            quantum_length_s=0.5,
            samples=samples,
            core_bandwidth=np.zeros(4),
        )
        for column, prop in (
            (c.access_rate, "access_rate"),
            (c.miss_rate, "miss_rate"),
            (c.ips, "ips"),
        ):
            assert [repr(v) for v in column.tolist()] == [
                repr(getattr(s, prop)) for s in samples
            ], prop

    def test_lazy_samples_from_columns(self):
        c = QuantumCounters.from_columns(
            2, 1.5, 0.5, np.zeros(4),
            tid=np.array([3, 1]),
            vcore=np.array([0, 2]),
            instructions=np.array([1e8, 0.0]),
            llc_accesses=np.array([5e6, 0.0]),
            llc_misses=np.array([2e6, 0.0]),
            runtime_s=np.array([0.25, 0.5]),
            cache_mb=np.array([1.5, 0.0]),
        )
        assert "samples" not in vars(c)  # built on first access only
        assert c.samples == (
            ThreadSample(3, 0, 1e8, 5e6, 2e6, 0.25, cache_mb=1.5),
            ThreadSample(1, 2, 0.0, 0.0, 0.0, 0.5),
        )
        assert all(type(s.tid) is int and type(s.runtime_s) is float for s in c.samples)
        assert len(c) == 2
        assert c.access_rates() == {3: 8e6, 1: 0.0}
