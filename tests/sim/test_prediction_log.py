"""`PredictionLog` against the tuple of records it replaces, bit for bit.

A run's predictions are five NumPy columns that also behave as a
read-only sequence of :class:`PredictionRecord` rows.  Hypothesis holds
``PredictionLog.from_records(recs)`` to ``tuple(recs)`` for length,
indexing, slicing, iteration and equality, and holds the column metrics
to the per-record loops they replaced (kept below as the reference).
Rows are compared by ``repr``, which round-trips float64 exactly and
prints every NaN alike.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.serialization import (
    run_result_from_json,
    run_result_to_full_dict,
    run_result_to_full_json,
)
from repro.metrics.prediction import error_series, prediction_errors
from repro.sim.results import BenchmarkResult, PredictionLog, PredictionRecord, RunResult

#: an idle thread's zero rate, or a rate in the simulator's range
RATE = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e9))
records_st = st.lists(
    st.builds(
        PredictionRecord,
        time_s=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        quantum_index=st.integers(min_value=0, max_value=12),
        tid=st.integers(min_value=0, max_value=40),
        predicted_rate=st.one_of(RATE, st.just(math.nan)),
        actual_rate=RATE,
    ),
    max_size=60,
)


def rows(records) -> list[str]:
    return [repr(r) for r in records]


def run_of(records) -> RunResult:
    return RunResult(
        workload_name="w",
        policy_name="p",
        seed=0,
        makespan_s=10.0,
        n_quanta=13,
        benchmarks=(BenchmarkResult(0, "a", (10.0,), 0),),
        swap_count=0,
        migration_count=0,
        predictions=tuple(records),
    )


# ----------------------------------------------- per-record reference loops


def reference_prediction_errors(records, min_threads: int) -> np.ndarray:
    diff: dict[int, float] = {}
    actual: dict[int, float] = {}
    count: dict[int, int] = {}
    for r in records:
        if r.actual_rate > 0.0 and np.isfinite(r.predicted_rate):
            q = r.quantum_index
            diff[q] = diff.get(q, 0.0) + (r.predicted_rate - r.actual_rate)
            actual[q] = actual.get(q, 0.0) + r.actual_rate
            count[q] = count.get(q, 0) + 1
    quanta = [q for q in sorted(diff) if actual[q] > 0.0 and count[q] >= min_threads]
    if not quanta:
        return np.zeros(0)
    return np.array([diff[q] / actual[q] for q in quanta], dtype=np.float64)


def reference_error_series(records, bucket_s: float):
    valid = [r for r in records if r.actual_rate > 0.0 and np.isfinite(r.predicted_rate)]
    if not valid:
        return np.zeros(0), np.zeros(0)
    times = np.array([r.time_s for r in valid])
    diffs = np.array([r.predicted_rate - r.actual_rate for r in valid])
    actuals = np.array([r.actual_rate for r in valid])
    t_end = times.max() + bucket_s
    edges = np.arange(0.0, t_end + bucket_s, bucket_s)
    idx = np.clip(np.digitize(times, edges) - 1, 0, len(edges) - 2)
    out = np.full(len(edges) - 1, np.nan)
    for b in np.unique(idx):
        sel = idx == b
        denom = actuals[sel].sum()
        if denom > 0:
            out[b] = diffs[sel].sum() / denom
    return edges[:-1], out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -------------------------------------------------------------- the log


class TestSequenceOfRecords:
    @settings(max_examples=150, deadline=None)
    @given(records_st, st.data())
    def test_log_behaves_as_the_tuple_of_its_records(self, recs, data):
        log = PredictionLog.from_records(recs)
        expected = tuple(recs)
        assert len(log) == len(expected)
        assert rows(log) == rows(expected)
        for i in range(-len(expected), len(expected)):
            assert repr(log[i]) == repr(expected[i])
        for i in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                log[i]
        sl = data.draw(st.slices(len(expected) + 2))
        assert isinstance(log[sl], PredictionLog)
        assert rows(log[sl]) == rows(expected[sl])
        assert log == expected and expected == log
        assert log == PredictionLog.from_records(recs)
        assert log != expected + (PredictionRecord(0.0, 0, 0, 1.0, 1.0),)
        if expected:
            first = expected[0]
            moved = PredictionRecord(
                first.time_s, first.quantum_index, first.tid + 1,
                first.predicted_rate, first.actual_rate,
            )
            assert log != (moved,) + expected[1:]

    @settings(max_examples=50, deadline=None)
    @given(records_st)
    def test_run_result_converts_records_and_survives_pickle(self, recs):
        result = run_of(recs)
        assert isinstance(result.predictions, PredictionLog)
        assert result.predictions == tuple(recs)
        back = pickle.loads(pickle.dumps(result))
        assert back.predictions == result.predictions
        assert not back.predictions.tid.flags.writeable

    def test_empty_log(self):
        log = PredictionLog()
        assert len(log) == 0 and list(log) == [] and not log
        assert log == () and () == log
        assert log == PredictionLog.from_records([])
        assert run_of([]).predictions == log
        assert RunResult("w", "p", 0, 1.0, 1, (), 0, 0).predictions == ()
        assert all(col.size == 0 for col in log.columns())

    def test_columns_are_read_only(self):
        log = PredictionLog.from_records([PredictionRecord(0.5, 1, 2, 3.0, 4.0)])
        with pytest.raises(ValueError):
            log.actual_rate[0] = 1.0
        with pytest.raises(AttributeError):
            log.tid = np.zeros(1, dtype=np.int64)
        assert [col.dtype for col in log.columns()] == list(PredictionLog.COLUMNS.values())

    def test_ragged_or_non_numeric_columns_are_rejected(self):
        with pytest.raises(ValueError, match="tid"):
            PredictionLog([0.0, 1.0], [0, 1], [3], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="predicted_rate"):
            PredictionLog([0.0], [0], [3], ["fast"], [1.0])
        with pytest.raises(ValueError, match="quantum_index"):
            PredictionLog([0.0], [None], [3], [1.0], [1.0])
        with pytest.raises(ValueError, match="time_s"):
            PredictionLog([[0.0]], [0], [3], [1.0], [1.0])


# ------------------------------------------------------------- the wire


class TestWire:
    @settings(max_examples=80, deadline=None)
    @given(records_st)
    def test_round_trip_and_null_only_for_nan(self, recs):
        result = run_of(recs)
        columns = run_result_to_full_dict(result)["predictions"]
        assert columns["predicted_rate"] == [
            None if math.isnan(r.predicted_rate) else r.predicted_rate for r in recs
        ]
        assert columns["tid"] == [r.tid for r in recs]
        text = run_result_to_full_json(result)
        back = run_result_from_json(text)
        assert rows(back.predictions) == rows(recs)
        assert run_result_to_full_json(back) == text

    def test_nan_predicted_rate_is_null_on_the_wire(self):
        recs = [PredictionRecord(0.5, 1, 2, math.nan, 4.0), PredictionRecord(1.0, 2, 2, 3.0, 4.0)]
        doc = json.loads(run_result_to_full_json(run_of(recs)))
        assert doc["predictions"]["predicted_rate"] == [None, 3.0]
        back = run_result_from_json(json.dumps(doc))
        assert math.isnan(back.predictions[0].predicted_rate)
        assert back.predictions == tuple(recs)


# ---------------------------------------------------------- the metrics


class TestMetricsMatchPerRecordLoops:
    @settings(max_examples=150, deadline=None)
    @given(records_st, st.integers(min_value=1, max_value=4))
    def test_prediction_errors(self, recs, min_threads):
        got = prediction_errors(run_of(recs), min_threads=min_threads)
        assert same_bits(got, reference_prediction_errors(recs, min_threads))

    @settings(max_examples=150, deadline=None)
    @given(records_st, st.sampled_from([0.25, 1.0, 2.5]))
    def test_error_series(self, recs, bucket_s):
        times, errors = error_series(run_of(recs), bucket_s=bucket_s)
        ref_times, ref_errors = reference_error_series(recs, bucket_s)
        assert same_bits(times, ref_times)
        assert same_bits(errors, ref_errors)
