"""Tests for run-result serialization."""

from __future__ import annotations

import json
import math

import pytest

import numpy as np

from repro.core.dike import DikeScheduler
from repro.experiments.runner import run_workload
from repro.experiments.serialization import (
    SCHEMA_VERSION,
    run_result_from_json,
    run_result_to_dict,
    run_result_to_full_json,
    run_result_to_json,
    sweep_result_from_json,
    sweep_result_to_json,
)
from repro.experiments.sweep import sweep_configurations
from repro.schedulers.static import StaticScheduler
from repro.workloads.suite import WorkloadSpec

SMALL = WorkloadSpec(
    name="small",
    apps=("jacobi", "srad"),
    include_kmeans=False,
    threads_per_app=2,
)


@pytest.fixture(scope="module")
def result():
    return run_workload(SMALL, DikeScheduler(), work_scale=0.02)


class TestToDict:
    def test_core_fields(self, result):
        d = run_result_to_dict(result)
        assert d["workload"] == "small"
        assert d["policy"] == "dike"
        assert d["n_quanta"] == result.n_quanta
        assert d["swap_count"] == result.swap_count

    def test_benchmarks_flattened(self, result):
        d = run_result_to_dict(result)
        assert len(d["benchmarks"]) == 2
        for b in d["benchmarks"]:
            assert isinstance(b["runtime_s"], float)
            assert len(b["thread_finish_times"]) == 2

    def test_metrics_included_by_default(self, result):
        d = run_result_to_dict(result)
        assert 0.0 < d["metrics"]["fairness"] <= 1.0
        assert set(d["metrics"]["benchmark_cv"]) == {"jacobi", "srad"}

    def test_metrics_can_be_skipped(self, result):
        d = run_result_to_dict(result, include_metrics=False)
        assert "metrics" not in d

    def test_nan_becomes_none(self):
        truncated = run_workload(
            SMALL, StaticScheduler(), work_scale=1.0, max_time_s=0.5
        )
        d = run_result_to_dict(truncated)
        flat = json.dumps(d)  # must not raise and must not contain NaN
        assert "NaN" not in flat
        assert d["metrics"]["fairness"] is None


class TestToJson:
    def test_round_trip(self, result):
        text = run_result_to_json(result)
        d = json.loads(text)
        assert d["workload"] == "small"

    def test_stable_ordering(self, result):
        assert run_result_to_json(result) == run_result_to_json(result)

    def test_info_tuples_become_lists(self, result):
        d = json.loads(run_result_to_json(result))
        assert isinstance(d["info"]["config_history"], list)


class TestFullRoundTrip:
    """The lossless wire format of the campaign result cache."""

    def test_round_trip_is_byte_identical(self, result):
        text = run_result_to_full_json(result)
        assert run_result_to_full_json(run_result_from_json(text)) == text

    def test_round_trip_preserves_every_field(self, result):
        back = run_result_from_json(run_result_to_full_json(result))
        assert back.workload_name == result.workload_name
        assert back.policy_name == result.policy_name
        assert back.seed == result.seed
        assert back.makespan_s == result.makespan_s
        assert back.n_quanta == result.n_quanta
        assert back.swap_count == result.swap_count
        assert back.migration_count == result.migration_count
        assert back.benchmarks == result.benchmarks
        assert back.predictions == result.predictions
        assert back.info == result.info

    def test_trace_is_not_serialised(self):
        traced = run_workload(
            SMALL, DikeScheduler(), work_scale=0.02, record_timeseries=True
        )
        assert traced.trace is not None
        back = run_result_from_json(run_result_to_full_json(traced))
        assert back.trace is None

    def test_nan_round_trips_through_none(self):
        truncated = run_workload(
            SMALL, StaticScheduler(), work_scale=1.0, max_time_s=0.5
        )
        text = run_result_to_full_json(truncated)
        assert "NaN" not in text
        back = run_result_from_json(text)
        finish = [t for b in back.benchmarks for t in b.thread_finish_times]
        assert any(math.isnan(t) for t in finish)

    def test_schema_version_mismatch_is_rejected(self, result):
        stale = json.loads(run_result_to_full_json(result))
        stale["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            run_result_from_json(json.dumps(stale))

    @pytest.mark.parametrize("text", ["[]", "null", "42", '"run"'])
    def test_document_that_is_not_an_object_is_rejected(self, text):
        with pytest.raises(ValueError, match="not a JSON object"):
            run_result_from_json(text)

    def test_ragged_prediction_columns_are_rejected(self, result):
        doc = json.loads(run_result_to_full_json(result))
        assert len(doc["predictions"]["tid"]) > 3
        doc["predictions"]["tid"] = doc["predictions"]["tid"][:-3]
        with pytest.raises(ValueError, match="'tid'"):
            run_result_from_json(json.dumps(doc))


class TestSweepRoundTrip:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_configurations(
            SMALL, work_scale=0.02, quanta_choices=(0.2, 0.5), swap_choices=(2, 4)
        )

    def test_round_trip_is_byte_identical(self, sweep):
        text = sweep_result_to_json(sweep)
        assert sweep_result_to_json(sweep_result_from_json(text)) == text

    def test_round_trip_preserves_grids_and_axes(self, sweep):
        back = sweep_result_from_json(sweep_result_to_json(sweep))
        assert back.workload == sweep.workload
        assert back.workload_class == sweep.workload_class
        assert back.quanta_choices == sweep.quanta_choices
        assert back.swap_choices == sweep.swap_choices
        np.testing.assert_array_equal(back.fairness_grid, sweep.fairness_grid)
        np.testing.assert_array_equal(back.speedup_grid, sweep.speedup_grid)
        np.testing.assert_array_equal(back.swap_count_grid, sweep.swap_count_grid)

    def test_schema_version_mismatch_is_rejected(self, sweep):
        stale = json.loads(sweep_result_to_json(sweep))
        stale["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            sweep_result_from_json(json.dumps(stale))
