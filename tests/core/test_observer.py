"""Tests for Dike's Observer: classification, CoreBW probing, fairness."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import DikeConfig
from repro.core.observer import Observer, classify
from repro.sim.counters import QuantumCounters, ThreadSample


def make_counters(
    threads: dict[int, tuple[int, float, float]],
    n_vcores: int = 8,
    quantum_index: int = 0,
) -> QuantumCounters:
    """threads: tid -> (vcore, access_rate, miss_rate)."""
    samples = []
    core_bw = np.zeros(n_vcores)
    for tid, (vcore, rate, miss) in threads.items():
        accesses = max(rate, 1.0) / max(miss, 1e-9)
        samples.append(
            ThreadSample(
                tid=tid,
                vcore=vcore,
                instructions=1e8,
                llc_accesses=accesses * 0.5,
                llc_misses=rate * 0.5,
                runtime_s=0.5,
            )
        )
        core_bw[vcore] += rate
    return QuantumCounters(
        quantum_index=quantum_index,
        time_s=0.5 * (quantum_index + 1),
        quantum_length_s=0.5,
        samples=tuple(samples),
        core_bandwidth=core_bw,
    )


def make_observer(groups=None, n_vcores=8, **cfg_kwargs) -> Observer:
    return Observer(DikeConfig(**cfg_kwargs), n_vcores, groups)


class TestClassification:
    def test_threshold_boundary(self):
        obs = make_observer()
        counters = make_counters({0: (0, 1e6, 0.11), 1: (1, 1e6, 0.09)})
        report = obs.update(counters)
        assert report.is_m_by_tid[0]
        assert not report.is_m_by_tid[1]

    def test_classify_exact_threshold_is_compute(self):
        # The paper's rule is "miss rate > 10% => M", *strictly* greater:
        # a thread sitting exactly on the boundary stays compute-bound.
        assert classify(0.10, 0.10) == "C"
        assert classify(0.10 + 1e-12, 0.10) == "M"
        assert classify(0.0, 0.10) == "C"
        assert classify(1.0, 0.10) == "M"

    def test_counts(self):
        obs = make_observer()
        counters = make_counters(
            {0: (0, 1e6, 0.3), 1: (1, 1e6, 0.4), 2: (2, 1e4, 0.05)}
        )
        report = obs.update(counters)
        assert report.n_memory() == 2
        assert report.n_compute() == 1

    def test_reclassified_every_quantum(self):
        obs = make_observer()
        r1 = obs.update(make_counters({0: (0, 1e6, 0.3)}))
        r2 = obs.update(make_counters({0: (0, 1e4, 0.02)}, quantum_index=1))
        assert r1.is_m_by_tid[0]
        assert not r2.is_m_by_tid[0]


class TestCoreBW:
    def test_memory_occupant_probes_core(self):
        obs = make_observer()
        report = obs.update(make_counters({0: (3, 2e6, 0.4)}))
        assert report.core_bw_of(3) == pytest.approx(2e6)

    def test_compute_occupant_does_not_probe(self):
        obs = make_observer()
        obs.update(make_counters({0: (3, 2e6, 0.4)}))  # establish best probe
        report = obs.update(
            make_counters({0: (5, 1e4, 0.02)}, quantum_index=1)
        )
        # core 5 unprobed: falls back to the optimistic best probe
        assert report.core_bw_of(5) == pytest.approx(2e6)

    def test_unprobed_machine_is_nan(self):
        obs = make_observer()
        report = obs.update(make_counters({0: (0, 1e4, 0.02)}))
        assert math.isnan(report.core_bw_of(0))

    def test_moving_mean_tracks_contention(self):
        obs = make_observer(corebw_window=2)
        obs.update(make_counters({0: (0, 4e6, 0.4)}))
        obs.update(make_counters({0: (0, 2e6, 0.4)}, quantum_index=1))
        report = obs.update(make_counters({0: (0, 2e6, 0.4)}, quantum_index=2))
        assert report.core_bw_of(0) == pytest.approx(2e6)

    def test_high_bw_identification_median_split(self):
        obs = make_observer()
        report = obs.update(
            make_counters({0: (0, 4e6, 0.4), 1: (1, 1e6, 0.4)})
        )
        assert report.high_by_vcore[0]
        assert not report.high_by_vcore[1]
        # unprobed cores sit at the optimistic max -> high side
        assert report.high_by_vcore[5]

    def test_reset_clears_probes(self):
        obs = make_observer()
        obs.update(make_counters({0: (0, 2e6, 0.4)}))
        obs.reset()
        report = obs.update(make_counters({0: (1, 1e4, 0.02)}, quantum_index=1))
        assert math.isnan(report.core_bw_of(0))


class TestFairnessSignal:
    def test_fair_when_groups_internally_equal(self):
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        obs = make_observer(groups=groups)
        # group rates internally equal, but groups differ from each other
        counters = make_counters(
            {0: (0, 2e6, 0.4), 1: (1, 2e6, 0.4), 2: (2, 5e5, 0.4), 3: (3, 5e5, 0.4)}
        )
        report = obs.update(counters)
        assert report.fairness < 0.1
        assert report.is_fair(0.1)

    def test_unfair_when_group_disperses(self):
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        obs = make_observer(groups=groups)
        counters = make_counters(
            {0: (0, 3e6, 0.4), 1: (1, 1e6, 0.4), 2: (2, 2e6, 0.4), 3: (3, 2e6, 0.4)}
        )
        report = obs.update(counters)
        assert report.fairness > 0.1

    def test_low_traffic_group_has_little_weight(self):
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        obs = make_observer(groups=groups)
        # group 1 is wildly dispersed but tiny; group 0 carries the traffic
        counters = make_counters(
            {0: (0, 2e6, 0.4), 1: (1, 2e6, 0.4), 2: (2, 2e3, 0.05), 3: (3, 10.0, 0.05)}
        )
        report = obs.update(counters)
        assert report.fairness < 0.1

    def test_without_groups_global_cv(self):
        obs = make_observer(groups=None)
        counters = make_counters({0: (0, 3e6, 0.4), 1: (1, 1e6, 0.4)})
        report = obs.update(counters)
        assert report.fairness == pytest.approx(0.5)

    def test_single_thread_is_nan_fair(self):
        obs = make_observer()
        report = obs.update(make_counters({0: (0, 1e6, 0.4)}))
        assert math.isnan(report.fairness)
        assert report.is_fair(0.1)

    def test_idle_threads_excluded(self):
        obs = make_observer(groups={0: 0, 1: 0, 2: 0})
        counters = make_counters({0: (0, 2e6, 0.4), 1: (1, 2e6, 0.4)})
        # add a barrier-idle thread with zero activity
        idle = ThreadSample(2, 2, 0.0, 0.0, 0.0, 0.5)
        counters = QuantumCounters(
            quantum_index=0,
            time_s=0.5,
            quantum_length_s=0.5,
            samples=counters.samples + (idle,),
            core_bandwidth=counters.core_bandwidth,
        )
        report = obs.update(counters)
        assert report.fairness < 0.1


class TestDemandEstimate:
    def test_tracks_peak(self):
        obs = make_observer()
        obs.update(make_counters({0: (0, 3e6, 0.4)}))
        report = obs.update(make_counters({0: (0, 1e6, 0.4)}, quantum_index=1))
        est = report.demand_of(0)
        assert 1e6 < est <= 3e6

    def test_decays_toward_current(self):
        obs = make_observer()
        obs.update(make_counters({0: (0, 3e6, 0.4)}))
        for q in range(1, 20):
            report = obs.update(make_counters({0: (0, 1e6, 0.4)}, quantum_index=q))
        assert report.demand_of(0) == pytest.approx(1e6, rel=0.05)
