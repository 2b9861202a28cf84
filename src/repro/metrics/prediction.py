"""Prediction-accuracy metrics for Dike's closed-loop model (Figures 7/8).

The paper defines prediction error as the relative difference between the
predicted and actual memory access rate of a swapped thread one quantum
after the prediction; positive = overestimate.  Figure 7 reports the
min/avg/max per workload, Figure 8 the error's time series.
"""

from __future__ import annotations

import numpy as np

from repro.sim.results import PredictionLog, RunResult

__all__ = [
    "prediction_errors",
    "error_summary",
    "error_series",
]


def _scored(log: PredictionLog) -> np.ndarray:
    """Mask of the records an error is defined for: a positive actual
    rate and a finite prediction."""
    return (log.actual_rate > 0.0) & np.isfinite(log.predicted_rate)


def prediction_errors(result: RunResult, min_threads: int = 10) -> np.ndarray:
    """Per-quantum relative prediction error.

    The paper's error is "the average difference between predicted and
    actual memory access of the running threads", evaluated each quantum:
    the aggregate signed difference across threads normalised by the
    aggregate actual access — i.e. how far off, relatively, the scheduler's
    picture of the quantum's memory traffic was.  (Normalising each thread
    separately would let a thread whose burst just ended register a
    +900 % error against a near-zero denominator, which no scheduler
    decision actually depends on.)  Figure 7 reports the min/avg/max of
    this per-quantum series over the run; Figure 8 plots the series.

    ``min_threads`` drops quanta with too few running threads (the tail of
    a run, where one departing thread swings the aggregate arbitrarily —
    the paper observes the same post-completion fluctuation in Figure 8).
    """
    log = result.predictions
    valid = _scored(log)
    if not valid.any():
        return np.zeros(0)
    actual = log.actual_rate[valid]
    # bincount adds each quantum's terms in record order, left to right.
    _, quantum = np.unique(log.quantum_index[valid], return_inverse=True)
    diff_sum = np.bincount(quantum, weights=log.predicted_rate[valid] - actual)
    actual_sum = np.bincount(quantum, weights=actual)
    keep = (actual_sum > 0.0) & (np.bincount(quantum) >= min_threads)
    return diff_sum[keep] / actual_sum[keep]


def error_summary(result: RunResult, min_threads: int = 10) -> dict[str, float]:
    """Figure 7's per-workload statistics: min / mean / max (and count)."""
    errors = prediction_errors(result, min_threads=min_threads)
    if errors.size == 0:
        nan = float("nan")
        return {"min": nan, "mean": nan, "max": nan, "n": 0}
    return {
        "min": float(errors.min()),
        "mean": float(errors.mean()),
        "max": float(errors.max()),
        "n": int(errors.size),
    }


def error_series(
    result: RunResult, bucket_s: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Figure 8's time series: aggregate-relative error per time bucket.

    Returns ``(bucket_start_times, error)`` with NaN for empty buckets;
    the error definition matches :func:`prediction_errors`.
    """
    log = result.predictions
    valid = _scored(log)
    if not valid.any():
        return np.zeros(0), np.zeros(0)
    times = log.time_s[valid]
    actuals = log.actual_rate[valid]
    diffs = log.predicted_rate[valid] - actuals
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
