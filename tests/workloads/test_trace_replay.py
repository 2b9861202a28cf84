"""Tests for trace-driven workloads (CSV import / record-replay)."""

from __future__ import annotations

import math

import pytest

from repro.core.dike import DikeScheduler
from repro.experiments.runner import run_workload
from repro.schedulers.static import StaticScheduler
from repro.sim.phases import PhaseTrace
from repro.workloads.suite import WorkloadSpec
from repro.workloads.trace_replay import (
    benchmark_from_csv,
    benchmark_from_samples,
    record_benchmark_trace,
    trace_from_samples,
)

SAMPLES = [
    (1e8, 6e6, 3e6),   # memory-ish window (miss ratio 0.5)
    (1e8, 6e6, 3e6),   # identical -> merged
    (2e8, 2e6, 1e5),   # compute-ish window (miss ratio 0.05)
]


class TestTraceFromSamples:
    def test_ratios_preserved(self):
        trace = trace_from_samples(SAMPLES)
        first = trace.segments[0]
        assert first.api == pytest.approx(6e6 / 1e8)
        assert first.miss_ratio == pytest.approx(0.5)

    def test_identical_windows_merged(self):
        trace = trace_from_samples(SAMPLES)
        assert trace.n_segments == 2
        assert trace.segments[0].work == pytest.approx(2e8)

    def test_total_work_preserved(self):
        trace = trace_from_samples(SAMPLES)
        assert trace.total_work == pytest.approx(4e8)

    def test_idle_windows_skipped(self):
        trace = trace_from_samples([(0.0, 0.0, 0.0)] + SAMPLES)
        assert trace.total_work == pytest.approx(4e8)

    def test_all_idle_rejected(self):
        with pytest.raises(ValueError, match="no usable samples"):
            trace_from_samples([(0.0, 0.0, 0.0)])

    def test_misses_above_accesses_rejected(self):
        with pytest.raises(ValueError, match="misses exceed"):
            trace_from_samples([(1e8, 1e6, 2e6)])

    def test_non_finite_instructions_rejected(self):
        with pytest.raises(ValueError, match="^work must be finite"):
            trace_from_samples([(math.inf, 10.0, 1.0)] + SAMPLES)

    def test_merged_segment_takes_the_last_windows_ratios(self):
        near = (1e8, 6e6 * (1 + 1e-12), 3e6)
        trace = trace_from_samples([SAMPLES[0], near])
        assert trace.n_segments == 1
        assert trace.seg_works.tolist() == [2e8]
        assert trace.seg_apis.tolist() == [near[1] / near[0]]
        assert trace.seg_miss_ratios.tolist() == [near[2] / near[1]]


class TestBenchmarkFromSamples:
    def test_intensity_autoclassified(self):
        mem = benchmark_from_samples("m", [(1e8, 6e6, 3e6)])
        cpu = benchmark_from_samples("c", [(1e8, 6e6, 1e5)])
        assert mem.intensity == "M"
        assert cpu.intensity == "C"

    def test_work_scale_applied_at_build(self):
        spec = benchmark_from_samples("m", SAMPLES)
        import numpy as np

        full = spec.build_trace(np.random.default_rng(0), 1.0)
        half = spec.build_trace(np.random.default_rng(0), 0.5)
        assert half.total_work == pytest.approx(full.total_work * 0.5)

    def test_runs_in_engine(self):
        spec = benchmark_from_samples("replayed", SAMPLES, n_threads=2)
        from repro.workloads.benchmark import instantiate
        from repro.sim.engine import SimulationEngine
        from repro.sim.topology import xeon_e5_heterogeneous

        group = instantiate(spec, 0, 0, seed=1, work_scale=1.0)
        engine = SimulationEngine(
            topology=xeon_e5_heterogeneous(),
            groups=[group],
            scheduler=StaticScheduler(),
            seed=1,
        )
        result = engine.run()
        assert all(math.isfinite(t) for t in result.benchmarks[0].thread_finish_times)


class TestCsvImport:
    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "mytrace.csv"
        csv_path.write_text(
            "instructions,llc_accesses,llc_misses,extra\n"
            "1e8,6e6,3e6,ignored\n"
            "2e8,2e6,1e5,ignored\n"
        )
        spec = benchmark_from_csv(csv_path)
        assert spec.name == "mytrace"
        assert spec.intensity == "M"

    def test_non_finite_instructions_rejected(self, tmp_path):
        csv_path = tmp_path / "inf.csv"
        csv_path.write_text(
            "instructions,llc_accesses,llc_misses\n"
            "inf,6e6,3e6\n"
            "2e8,2e6,1e5\n"
        )
        with pytest.raises(ValueError, match="^work must be finite"):
            benchmark_from_csv(csv_path)

    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="columns"):
            benchmark_from_csv(bad)


class TestRecordReplay:
    def test_recorded_trace_replays(self):
        spec = WorkloadSpec(
            name="t", apps=("jacobi", "srad"), include_kmeans=False,
            threads_per_app=2,
        )
        original = run_workload(
            spec, DikeScheduler(), work_scale=0.02, record_timeseries=True
        )
        samples = record_benchmark_trace(original, "jacobi", member=0)
        assert len(samples) > 1
        replayed = benchmark_from_samples("jacobi-replay", samples, n_threads=2)
        replay_spec = WorkloadSpec(
            name="replay", apps=("srad",), include_kmeans=False, threads_per_app=2
        )
        # run the replayed benchmark alongside srad
        from repro.workloads.benchmark import instantiate
        from repro.sim.engine import SimulationEngine
        from repro.sim.topology import xeon_e5_heterogeneous

        groups = replay_spec.build(seed=2, work_scale=0.02)
        tid_start = sum(g.n_threads for g in groups)
        groups.append(instantiate(replayed, len(groups), tid_start, 2, 1.0))
        result = SimulationEngine(
            topology=xeon_e5_heterogeneous(),
            groups=groups,
            scheduler=DikeScheduler(),
            seed=2,
        ).run()
        assert all(
            math.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )

    def test_requires_trace(self):
        spec = WorkloadSpec(
            name="t", apps=("jacobi",), include_kmeans=False, threads_per_app=2
        )
        res = run_workload(spec, StaticScheduler(), work_scale=0.01)
        with pytest.raises(ValueError):
            record_benchmark_trace(res, "jacobi")
