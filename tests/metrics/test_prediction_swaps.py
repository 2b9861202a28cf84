"""Tests for prediction-error and swap metrics."""

from __future__ import annotations

import math

import pytest

from repro.metrics.prediction import error_series, error_summary, prediction_errors
from repro.metrics.swaps import migration_overhead_fraction, swap_count, swap_rate
from repro.sim.results import BenchmarkResult, PredictionRecord, RunResult


def make_result(
    records: list[PredictionRecord],
    swaps: int = 0,
    migrations: int = 0,
) -> RunResult:
    return RunResult(
        workload_name="w",
        policy_name="p",
        seed=0,
        makespan_s=10.0,
        n_quanta=20,
        benchmarks=(BenchmarkResult(0, "a", (10.0, 10.0), migrations),),
        swap_count=swaps,
        migration_count=migrations,
        predictions=tuple(records),
    )


def rec(q: int, tid: int, pred: float, actual: float) -> PredictionRecord:
    return PredictionRecord(
        time_s=q * 0.5, quantum_index=q, tid=tid,
        predicted_rate=pred, actual_rate=actual,
    )


class TestPredictionErrors:
    def test_aggregate_relative_error_per_quantum(self):
        # quantum 0: predicted 110 vs actual 100 total -> +10%
        records = [rec(0, t, 11.0, 10.0) for t in range(10)]
        errors = prediction_errors(make_result(records), min_threads=1)
        assert errors.shape == (1,)
        assert errors[0] == pytest.approx(0.1)

    def test_min_threads_filters_sparse_quanta(self):
        records = [rec(0, t, 11.0, 10.0) for t in range(10)]
        records += [rec(1, 0, 50.0, 10.0)]  # 1-thread quantum
        errors = prediction_errors(make_result(records), min_threads=5)
        assert errors.shape == (1,)

    def test_offsetting_errors_cancel(self):
        records = [rec(0, t, 12.0, 10.0) for t in range(5)]
        records += [rec(0, 5 + t, 8.0, 10.0) for t in range(5)]
        errors = prediction_errors(make_result(records), min_threads=1)
        assert errors[0] == pytest.approx(0.0)

    def test_empty(self):
        assert prediction_errors(make_result([])).size == 0

    def test_summary_fields(self):
        records = [rec(q, t, 10.0 + q, 10.0) for q in range(3) for t in range(12)]
        s = error_summary(make_result(records))
        assert s["n"] == 3
        assert s["min"] == pytest.approx(0.0)
        assert s["max"] == pytest.approx(0.2)

    def test_summary_empty(self):
        s = error_summary(make_result([]))
        assert s["n"] == 0
        assert math.isnan(s["mean"])


class TestErrorSeries:
    def test_bucketing(self):
        records = [rec(0, t, 11.0, 10.0) for t in range(4)]
        records += [rec(4, t, 9.0, 10.0) for t in range(4)]  # time 2.0
        times, errors = error_series(make_result(records), bucket_s=1.0)
        assert errors[0] == pytest.approx(0.1)
        assert errors[2] == pytest.approx(-0.1)
        assert math.isnan(errors[1])

    def test_empty(self):
        t, e = error_series(make_result([]))
        assert t.size == 0 and e.size == 0


class TestSwapMetrics:
    def test_swap_count(self):
        assert swap_count(make_result([], swaps=7)) == 7

    def test_swap_rate(self):
        assert swap_rate(make_result([], swaps=20)) == pytest.approx(2.0)

    def test_overhead_fraction(self):
        r = make_result([], swaps=5, migrations=10)
        # 10 migrations x 0.01s over 20s of thread time
        assert migration_overhead_fraction(r, 0.01) == pytest.approx(0.005)
