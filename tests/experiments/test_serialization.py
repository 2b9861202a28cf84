"""Tests for run-result serialization."""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.campaign.spec import execute_task
from repro.core.dike import DikeScheduler
from repro.experiments.runner import run_workload
from repro.experiments.serialization import (
    SCHEMA_VERSION,
    run_result_from_dict,
    run_result_from_json,
    run_result_to_dict,
    run_result_to_full_dict,
    run_result_to_full_json,
    run_result_to_full_json_chunks,
    run_result_to_json,
    sweep_result_from_json,
    sweep_result_to_json,
)
from repro.experiments.sweep import sweep_configurations
from repro.schedulers.static import StaticScheduler
from repro.sim.results import BenchmarkResult, PredictionLog, RunResult
from repro.traffic import TrafficCampaignSpec, TrafficSpec, plan_traffic
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


def stdlib_text(result: RunResult) -> str:
    """The full document as the standard library writes it."""
    return json.dumps(run_result_to_full_dict(result), sort_keys=True, allow_nan=False)


def nan_with_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


#: floats whose text is easy to get wrong: signed zeros, NaNs of several
#: bit patterns (payload, sign, signalling), infinities, subnormals, and
#: values where ``repr`` switches notation (1e16, 1e-4)
EDGE_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, nan_with_bits(0x7FF8000000000001),
    nan_with_bits(0xFFF8000000000123), nan_with_bits(0x7FF0000000000001),
    math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e16, -1e16,
    9999999999999998.0, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05,
    0.00010000000000000002, 1e-05, 0.1, 1.0, 123456789.0,
)
FLOAT = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(),
    st.floats(min_value=1e15, max_value=1e17),
    st.floats(min_value=1e-5, max_value=1e-3),
)
INT = st.one_of(
    st.sampled_from((0, -1, 1, 2**63 - 1, -(2**63))),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)


@st.composite
def logs(draw) -> PredictionLog:
    """A log whose columns repeat values, within and across columns."""
    n = draw(st.integers(min_value=0, max_value=40))
    pools = {np.float64: draw(st.lists(FLOAT, min_size=1, max_size=8)),
             np.int64: draw(st.lists(INT, min_size=1, max_size=8))}
    columns = []
    for dtype in PredictionLog.COLUMNS.values():
        value = FLOAT if dtype is np.float64 else INT
        cell = st.one_of(st.sampled_from(pools[dtype]), value)
        columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return PredictionLog(*columns)


INFOS = (
    {},
    {"policy": "dike", "config_history": ((0, 4, 0.5), (12, 3, 1.0)), "ratio": -0.0},
    {"traffic": {"n_jobs": 3, "latency_p50_s": 1.5, "slowdown_p99": None,
                 "baseline_cache": {"hits": 2, "misses": 1}}},
)


def result_with(log: PredictionLog, info: dict, makespan_s: float = 2.5) -> RunResult:
    return RunResult(
        workload_name="w\u00e9",
        policy_name="dike",
        seed=3,
        makespan_s=makespan_s,
        n_quanta=7,
        benchmarks=(BenchmarkResult(0, "jacobi", (2.0, math.nan), 1, 0.25),),
        swap_count=1,
        migration_count=2,
        predictions=log,
        info=info,
    )


class TestColumnEncoder:
    """The full JSON text is written from the log's columns; the standard
    library's encoding of the full dict is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(logs(), st.sampled_from(INFOS), FLOAT)
    @example(PredictionLog(), INFOS[2], 1.0)
    @example(PredictionLog([0.5], [1], [2], [-0.0], [0.0]), INFOS[0], math.nan)
    def test_text_is_the_standard_librarys(self, log, info, makespan_s):
        result = result_with(log, info, makespan_s)
        text = run_result_to_full_json(result)
        assert text == stdlib_text(result)
        assert "".join(run_result_to_full_json_chunks(result)) == text

    def test_real_runs(self, result):
        truncated = run_workload(SMALL, StaticScheduler(), work_scale=1.0, max_time_s=0.5)
        for run in (result, truncated):
            assert run_result_to_full_json(run) == stdlib_text(run)

    def test_non_finite_info_value_is_rejected(self):
        with pytest.raises(ValueError, match="Out of range float"):
            run_result_to_full_json(result_with(PredictionLog(), {"x": math.inf}))


@pytest.fixture(scope="module")
def documents(result) -> list[dict]:
    """Real documents: a Dike run with a log, a truncated run with
    ``null`` finish times, and an open-loop run with a traffic summary."""
    truncated = run_workload(SMALL, StaticScheduler(), work_scale=1.0, max_time_s=0.5)
    task = plan_traffic(
        TrafficCampaignSpec(
            traffic=(TrafficSpec(n_jobs=3, mean_interarrival_s=10.0),),
            policies=("cfs",),
            seeds=(7,),
            work_scale=0.02,
        )
    ).tasks[0]
    return [
        json.loads(run_result_to_full_json(r))
        for r in (result, truncated, execute_task(task))
    ]


def paths(value, path=()):
    """Every path into ``value``: each key of an object, and the first
    two and the last index of an array."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, (*path, key))
    elif isinstance(value, list):
        for i in sorted({0, 1, len(value) - 1} & set(range(len(value)))):
            yield from paths(value[i], (*path, i))


def at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=4,
)


class TestMalformedDocuments:
    """Every malformed document raises ``ValueError`` naming the field,
    never a raw ``KeyError`` or ``TypeError``."""

    @pytest.mark.parametrize(
        "field",
        ["workload", "policy", "seed", "makespan_s", "n_quanta", "benchmarks",
         "swap_count", "migration_count", "predictions", "info"],
    )
    def test_missing_top_level_field(self, documents, field):
        doc = copy.deepcopy(documents[0])
        del doc[field]
        with pytest.raises(ValueError, match=f"result has no field '{field}'"):
            run_result_from_dict(doc)

    def test_missing_benchmark_field(self, documents):
        doc = copy.deepcopy(documents[0])
        del doc["benchmarks"][0]["thread_finish_times"]
        with pytest.raises(ValueError, match="benchmark has no field 'thread_finish_times'"):
            run_result_from_dict(doc)

    def test_missing_prediction_column(self, documents):
        doc = copy.deepcopy(documents[0])
        del doc["predictions"]["tid"]
        with pytest.raises(ValueError, match="predictions has no field 'tid'"):
            run_result_from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("benchmarks",), "x", "'benchmarks'.*not a JSON array"),
            (("benchmarks", 0), 5, "'benchmarks'.*benchmark is a int"),
            (("seed",), None, "'seed'"),
            (("benchmarks", 0, "thread_finish_times"), [], "'thread_finish_times'.*at least one thread"),
            (("benchmarks", 0, "thread_finish_times"), "1.0", "'thread_finish_times'"),
            (("makespan_s",), 10**400, "'makespan_s'"),
            (("n_quanta",), 2.5, "'n_quanta'"),
            (("policy",), 7, "'policy'"),
            (("info",), [], "'info'"),
            (("predictions", "time_s"), {"a": 1}, "'time_s'"),
        ],
    )
    def test_retyped_field(self, documents, path, value, match):
        doc = copy.deepcopy(documents[0])
        at(doc, path[:-1])[path[-1]] = value
        with pytest.raises(ValueError, match=match):
            run_result_from_dict(doc)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_field_dropped_or_retyped(self, documents, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(documents)))
        path = data.draw(st.sampled_from(list(paths(doc))))
        drop = bool(path) and data.draw(st.booleans())
        if not path:
            doc = data.draw(JSON_VALUE)
        elif drop:
            del at(doc, path[:-1])[path[-1]]
        else:
            at(doc, path[:-1])[path[-1]] = data.draw(JSON_VALUE)
        required = drop and isinstance(path[-1], str) and path[0] != "info"
        try:
            back = run_result_from_dict(doc)
        except ValueError:
            return
        assert not required, path
        # What decodes is whole: every benchmark has a finish time, and
        # the result encodes again.
        assert all(isinstance(b.finish_time, float) for b in back.benchmarks)
        run_result_to_full_json(back)


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
