"""Swap/migration accounting (Table III and the overhead analysis of §IV-B)."""

from __future__ import annotations

import numpy as np

from repro.sim.results import RunResult
from repro.util.stats import left_sum

__all__ = ["swap_count", "swap_rate", "migration_overhead_fraction"]


def swap_count(result: RunResult) -> int:
    """Number of pairwise swaps performed during the run (Table III cells)."""
    return result.swap_count


def swap_rate(result: RunResult) -> float:
    """Swaps per simulated second."""
    if result.makespan_s <= 0 or not np.isfinite(result.makespan_s):
        return float("nan")
    return result.swap_count / result.makespan_s


def migration_overhead_fraction(
    result: RunResult, swap_overhead_s: float
) -> float:
    """Fraction of aggregate thread-time lost to migration penalties.

    A coarse upper bound: ``migrations x swapOH`` over the summed thread
    runtimes — the quantity Dike's predictor tries to keep small.
    """
    total_thread_time = left_sum(
        t for b in result.benchmarks for t in b.thread_finish_times if np.isfinite(t)
    )
    if total_thread_time <= 0:
        return float("nan")
    return result.migration_count * swap_overhead_s / total_thread_time
