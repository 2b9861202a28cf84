"""Replaying job traces: build semantics, engine execution, round-trip."""

from __future__ import annotations

import math

import pytest

from repro.core.dike import DikeScheduler
from repro.experiments.runner import run_workload
from repro.metrics.fairness import fairness
from repro.obs.diff import diff_traces, load_events
from repro.obs.events import EventBus
from repro.obs.sinks import JsonlSink
from repro.schedulers.static import StaticScheduler
from repro.traffic import (
    Job,
    PoissonProcess,
    TrafficWorkload,
    load_trace,
    phased_workload,
    workload_from_trace,
    write_trace,
)


def two_job_workload(threads=2) -> TrafficWorkload:
    return TrafficWorkload(
        name="d",
        jobs=(
            Job(0, "jacobi", 0.0, n_threads=threads),
            Job(1, "srad", 10.0, n_threads=threads),
        ),
    )


class TestBuild:
    def test_arrivals_scale_with_work_scale(self):
        groups = two_job_workload().build(seed=0, work_scale=0.5)
        assert groups[0].arrival_s == 0.0
        assert groups[1].arrival_s == pytest.approx(5.0)

    def test_dense_tids_in_job_order(self):
        wl = phased_workload(threads_per_app=2)
        groups = wl.build(seed=0, work_scale=0.1)
        tids = [t.tid for g in groups for t in g.threads]
        assert tids == list(range(len(tids)))

    def test_size_scales_job_work(self):
        full = TrafficWorkload(
            name="f", jobs=(Job(0, "jacobi", 0.0, n_threads=2),)
        ).build(seed=0, work_scale=0.1)
        half = TrafficWorkload(
            name="h", jobs=(Job(0, "jacobi", 0.0, n_threads=2, size=0.5),)
        ).build(seed=0, work_scale=0.1)
        assert half[0].threads[0].total_work == pytest.approx(
            0.5 * full[0].threads[0].total_work
        )

    def test_entries_view(self):
        assert two_job_workload().entries == (("jacobi", 0.0), ("srad", 10.0))

    def test_needs_jobs(self):
        with pytest.raises(ValueError, match=">= 1 job"):
            TrafficWorkload(name="empty", jobs=())

    def test_build_matches_traffic_workload(self):
        """Group order, dense thread ids and scaled arrivals of a
        two-job build, pinned value by value."""
        groups = two_job_workload().build(seed=0, work_scale=0.5)
        assert [g.arrival_s for g in groups] == [0.0, pytest.approx(5.0)]
        assert [[t.tid for t in g.threads] for g in groups] == [[0, 1], [2, 3]]

    def test_phased_workload_is_the_traffic_one(self):
        wl = phased_workload()
        assert isinstance(wl, TrafficWorkload)
        assert wl.entries == (
            ("srad", 0.0), ("leukocyte", 0.0), ("jacobi", 0.0), ("kmeans", 0.0),
            ("stream_omp", 40.0), ("streamcluster", 40.0), ("needle", 55.0),
        )
        assert {j.n_threads for j in wl.jobs} == {8}


class TestExecution:
    @pytest.fixture(scope="class")
    def result(self):
        wl = TrafficWorkload(
            name="d",
            jobs=(
                Job(0, "jacobi", 0.0, n_threads=2),
                Job(1, "srad", 0.0, n_threads=2),
                Job(2, "streamcluster", 8.0, n_threads=2),
            ),
        )
        return run_workload(wl, StaticScheduler(), work_scale=0.05)

    def test_late_job_starts_after_arrival(self, result):
        late = result.benchmark_named("streamcluster")
        assert late.arrival_s > 0
        assert min(late.thread_finish_times) > late.arrival_s

    def test_runtimes_relative_to_arrival(self, result):
        late = result.benchmark_named("streamcluster")
        assert late.runtime == pytest.approx(late.finish_time - late.arrival_s)
        assert all(r > 0 for r in late.thread_runtimes)

    def test_all_finish_and_fairness_computable(self, result):
        assert all(
            math.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )
        assert math.isfinite(fairness(result))

    def test_dike_handles_arrivals(self):
        wl = TrafficWorkload(
            name="d",
            jobs=(
                Job(0, "jacobi", 0.0, n_threads=2),
                Job(1, "srad", 0.0, n_threads=2),
                Job(2, "stream_omp", 5.0, n_threads=2),
            ),
        )
        result = run_workload(wl, DikeScheduler(), work_scale=0.05)
        assert all(
            math.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )


class TestRoundTrip:
    """generate -> write -> load -> replay must equal replaying in memory."""

    def _engine_trace(self, wl, path):
        bus = EventBus()
        bus.attach(JsonlSink(path))
        run_workload(wl, StaticScheduler(), seed=3, work_scale=0.02, bus=bus)
        bus.close()
        return path

    def test_replay_from_disk_is_bit_identical(self, tmp_path):
        trace = PoissonProcess(mean_interarrival_s=8.0).generate(
            n_jobs=4, seed=11, n_threads=2
        )
        loaded = load_trace(write_trace(trace, tmp_path / "jobs.jsonl"))
        assert loaded == trace
        a = self._engine_trace(workload_from_trace(trace), tmp_path / "a.jsonl")
        b = self._engine_trace(workload_from_trace(loaded), tmp_path / "b.jsonl")
        diff = diff_traces(load_events(a), load_events(b))
        assert diff.identical, f"replay diverged after disk round-trip: {diff}"
