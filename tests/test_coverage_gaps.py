"""Direct tests for accessors otherwise only exercised indirectly."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.report import ShapeCheck, EvaluationReport
from repro.experiments.fig6 import Fig6Row, Fig6Result
from repro.experiments.fig8 import Fig8Series
from repro.workloads.suite import workload


class TestFig8SeriesAccessors:
    def _series(self) -> Fig8Series:
        times = np.arange(0.0, 20.0, 1.0)
        errors = np.where(times > 10.0, 0.3, 0.05)  # spike after completion
        return Fig8Series(
            workload="wl6",
            times=times,
            errors=errors,
            completions={"jacobi": 10.0},
        )

    def test_error_near_completions(self):
        s = self._series()
        near = s.error_near_completions(window_s=5.0)
        assert near == pytest.approx(0.3, abs=0.05)

    def test_max_abs_error(self):
        assert self._series().max_abs_error() == pytest.approx(0.3)

    def test_no_completions_nan(self):
        s = Fig8Series(
            workload="x", times=np.array([0.0]), errors=np.array([0.1]),
            completions={},
        )
        assert math.isnan(s.error_near_completions())


class TestFig6Accessors:
    def _result(self) -> Fig6Result:
        row = Fig6Row(
            workload="wl1",
            workload_class="B",
            baseline_fairness=0.8,
            fairness={"dio": 0.9, "dike": 0.92, "dike-af": 0.93, "dike-ap": 0.91},
            speedup={"dio": 1.0, "dike": 1.1, "dike-af": 1.05, "dike-ap": 1.15},
            swaps={"dio": 100, "dike": 20, "dike-af": 30, "dike-ap": 10},
        )
        return Fig6Result(rows=(row,), results={})

    def test_mean_fairness_improvement(self):
        r = self._result()
        assert r.mean_fairness_improvement("dike") == pytest.approx(0.15)

    def test_fairness_improvement_per_row(self):
        r = self._result()
        assert r.rows[0].fairness_improvement("dio") == pytest.approx(0.125)


class TestEvaluationReportAllHold:
    def _report(self, holds: bool) -> EvaluationReport:
        from repro.experiments.fig6 import Fig6Result

        check = ShapeCheck("claim", holds, "detail")
        return EvaluationReport(
            fig6=Fig6Result(rows=(), results={}), checks=(check,)
        )

    def test_all_hold_true(self):
        assert self._report(True).all_hold

    def test_all_hold_false(self):
        assert not self._report(False).all_hold


class TestWorkloadSpecAccessors:
    def test_specs_exclude_kmeans(self):
        spec = workload("wl1")
        names = [s.name for s in spec.specs]
        assert names == list(spec.apps)
        assert "kmeans" not in names

    def test_specs_intensities_match_counts(self):
        spec = workload("wl12")
        intensities = [s.intensity for s in spec.specs]
        assert intensities.count("M") == spec.n_memory
        assert intensities.count("C") == spec.n_compute
