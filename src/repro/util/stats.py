"""Streaming and batch statistics used throughout the scheduler stack.

The paper leans on three statistics:

* the **coefficient of variation** (standard deviation over mean) — Dike's
  runtime fairness signal and the final Fairness metric (Eqn. 4);
* a **moving mean** of per-core bandwidth (``CoreBW``) consumed by the
  closed-loop predictor, whose windows the Observer keeps as arrays
  (`repro.core.observer`);
* the **geometric mean** used to aggregate improvements across workloads.

All batch helpers accept anything convertible to a 1-D ``float64`` array and
are safe for empty input (they return ``nan`` rather than raising), because
the scheduler may legitimately observe zero running threads at workload
boundaries.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable

import numpy as np

__all__ = [
    "coefficient_of_variation",
    "geometric_mean",
    "left_sum",
    "left_sums",
    "ExponentialMean",
    "summarize",
]


def _as_array(values: Iterable[float]) -> np.ndarray:
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    arr = np.asarray(values, dtype=np.float64)
    return arr if arr.ndim == 1 else np.ravel(arr)


def left_sum(values: Iterable[float]) -> float:
    """Sum added strictly left to right, starting from ``0.0``.

    This is the builtin ``sum`` of Python 3.11.  From 3.12 the builtin
    compensates float rounding and can differ in the last bit, so the
    scheduler's sums use this to compute the same numbers on every
    interpreter.
    """
    return reduce(operator.add, values, 0.0)


def left_sums(values: np.ndarray) -> np.ndarray:
    """:func:`left_sum` along the last axis of an array.

    ``add.accumulate`` adds sequentially; adding ``0.0`` turns a ``-0.0``
    result into ``0.0``, the one way it could differ from a sum that
    starts from zero.
    """
    return np.add.accumulate(values, axis=-1)[..., -1] + 0.0


def coefficient_of_variation(values: Iterable[float]) -> float:
    """Population standard deviation over mean.

    Returns ``0.0`` for a single observation (no dispersion is observable)
    and ``nan`` for empty input or a zero mean, matching how the paper's
    fairness signal degenerates when no threads are running.
    """
    arr = _as_array(values)
    if arr.size == 0:
        return float("nan")
    mean = float(arr.mean())
    if arr.size == 1:
        return 0.0
    if mean == 0.0:
        return float("nan")
    return float(arr.std() / abs(mean))


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values; ``nan`` if empty.

    Raises
    ------
    ValueError
        If any value is zero or negative (a geometric mean is undefined);
        callers aggregating improvement *ratios* should pass ratios, never
        signed percentage deltas.
    """
    arr = _as_array(values)
    if arr.size == 0:
        return float("nan")
    if np.any(arr <= 0.0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.log(arr).mean()))


class ExponentialMean:
    """Exponentially weighted moving mean (EWMA).

    Used by the real-Linux platform backend where sampling jitter benefits
    from exponential smoothing rather than a hard window.
    """

    __slots__ = ("_alpha", "_value")

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._alpha = alpha
        self._value: float | None = None

    def update(self, value: float) -> float:
        value = float(value)
        if self._value is None:
            self._value = value
        else:
            self._value += self._alpha * (value - self._value)
        return self._value

    @property
    def value(self) -> float:
        return float("nan") if self._value is None else self._value

    def reset(self) -> None:
        self._value = None


def summarize(values: Iterable[float]) -> dict[str, float]:
    """Min / mean / max / std / cv summary used in experiment reports."""
    arr = _as_array(values)
    if arr.size == 0:
        nan = float("nan")
        return {"min": nan, "mean": nan, "max": nan, "std": nan, "cv": nan, "n": 0}
    return {
        "min": float(arr.min()),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
        "std": float(arr.std()),
        "cv": coefficient_of_variation(arr),
        "n": int(arr.size),
    }
