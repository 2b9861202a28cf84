"""Tests for cv, geometric mean and moving means."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    ExponentialMean,
    coefficient_of_variation,
    geometric_mean,
    left_sum,
    summarize,
)

finite_positive = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestCoefficientOfVariation:
    def test_identical_values_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        # [1, 3]: mean 2, population std 1 -> cv 0.5
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_empty_is_nan(self):
        assert math.isnan(coefficient_of_variation([]))

    def test_single_value_zero(self):
        assert coefficient_of_variation([7.0]) == 0.0

    def test_zero_mean_is_nan(self):
        assert math.isnan(coefficient_of_variation([-1.0, 1.0]))

    def test_scale_invariant(self):
        a = coefficient_of_variation([1.0, 2.0, 3.0])
        b = coefficient_of_variation([10.0, 20.0, 30.0])
        assert a == pytest.approx(b)

    def test_accepts_numpy_array(self):
        assert coefficient_of_variation(np.array([2.0, 2.0])) == 0.0

    @given(st.lists(finite_positive, min_size=2, max_size=30))
    def test_non_negative_for_positive_data(self, values):
        assert coefficient_of_variation(values) >= 0.0

    @given(st.lists(finite_positive, min_size=2, max_size=30), finite_positive)
    def test_scaling_property(self, values, k):
        a = coefficient_of_variation(values)
        b = coefficient_of_variation([v * k for v in values])
        assert b == pytest.approx(a, rel=1e-6, abs=1e-9)


class TestLeftSum:
    """Strictly left-to-right addition on every interpreter (Python 3.12's
    builtin ``sum`` compensates rounding: it returns 1.0 below)."""

    def test_adds_left_to_right(self):
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum(iter([0.1] * 10)) == 0.9999999999999999

    def test_empty_and_negative_zero(self):
        assert left_sum([]) == 0.0
        assert math.copysign(1.0, left_sum([-0.0])) == 1.0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty_is_nan(self):
        assert math.isnan(geometric_mean([]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        g = geometric_mean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9


class TestExponentialMean:
    def test_first_update_sets_value(self):
        em = ExponentialMean(alpha=0.5)
        assert em.update(4.0) == pytest.approx(4.0)

    def test_smoothing(self):
        em = ExponentialMean(alpha=0.5)
        em.update(0.0)
        assert em.update(10.0) == pytest.approx(5.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ExponentialMean(alpha=0.0)
        with pytest.raises(ValueError):
            ExponentialMean(alpha=1.5)

    def test_reset(self):
        em = ExponentialMean()
        em.update(1.0)
        em.reset()
        assert math.isnan(em.value)


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)
        assert s["n"] == 3

    def test_empty(self):
        s = summarize([])
        assert s["n"] == 0
        assert math.isnan(s["mean"])
