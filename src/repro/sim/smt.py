"""Simultaneous-multithreading (hyperthreading) cycle-sharing model.

The paper's testbed runs with hyperthreading enabled: contention "can occur
from threads sharing a single virtual core".  A physical core's issue
capacity is split among its *busy* hardware threads, with a twist that
matters for fairness studies: **a sibling that stalls on memory frees
issue slots**.  A thread co-resident with a memory-bound sibling therefore
retains more of the core than one co-resident with a compute-bound
sibling:

* alone on the physical core: full clock rate;
* sharing: base share ``smt_efficiency`` (0.62 — two hyperthreads together
  yield the commonly measured ~1.24x of one), plus a bonus proportional to
  the sibling's memory-stall fraction, up to ``smt_stall_bonus``.

This asymmetry is a real dispersion source on SMT machines (sibling luck
varies across a benchmark's threads under a contention-blind scheduler) and
is neutral under Dike's converged mapping (like threads share cores with
like siblings).

The model stays deliberately coarse — schedulers only ever observe
per-thread rates — but preserves the two properties that shape the
experiments: packing is worse than spreading, and sibling identity matters.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_in_range

__all__ = ["SMT_STALL_BONUS", "busy_vcores_per_core", "smt_cycle_rates"]

#: Default share a fully memory-stalled sibling gives back (the engine
#: always runs with it, so it also bounds the engine's ``smt_efficiency``).
SMT_STALL_BONUS = 0.25


def busy_vcores_per_core(
    vcore_load: np.ndarray, vcore_physical: np.ndarray, n_physical: int
) -> np.ndarray:
    """Busy hardware threads per physical core, for lane-stacked loads.

    ``vcore_load`` holds a thread count per virtual core for one or more
    lanes (lane ``r``'s vcore ``v`` at ``r * n_vcores + v``); the result
    counts each lane's busy vcores per physical core the same way (lane
    ``r``'s core ``p`` at ``r * n_physical + p``).
    """
    n_lanes = vcore_load.size // vcore_physical.size
    keys = vcore_physical  # one lane: its keys are the physical core ids
    if n_lanes > 1:
        keys = (vcore_physical + np.arange(n_lanes)[:, None] * n_physical).ravel()
    return np.bincount(keys[vcore_load > 0], minlength=n_lanes * n_physical)


def smt_cycle_rates(
    vcore_of: np.ndarray,
    vcore_physical: np.ndarray,
    vcore_freq_hz: np.ndarray,
    smt_efficiency: float = 0.70,
    stall_fraction: np.ndarray | None = None,
    smt_stall_bonus: float = SMT_STALL_BONUS,
    n_physical: int | None = None,
    lane_of: np.ndarray | None = None,
    n_lanes: int = 1,
) -> np.ndarray:
    """Cycles/second each runnable thread receives after SMT sharing.

    Parameters
    ----------
    vcore_of:
        Virtual core hosting each runnable thread, shape ``(n,)``.  Multiple
        threads on the *same virtual core* time-share it equally (the OS
        level of sharing) before SMT sharing applies at the physical level.
    vcore_physical:
        Map from virtual core id to physical core id.
    vcore_freq_hz:
        Map from virtual core id to clock rate.
    smt_efficiency:
        Per-thread base throughput fraction when a physical core hosts more
        than one busy hardware thread.
    stall_fraction:
        Optional per-thread fraction of time stalled on memory (0..1,
        shape ``(n,)``).  When given, each thread's share gains
        ``smt_stall_bonus * mean(stall of co-resident siblings)``.
    smt_stall_bonus:
        Maximum share recovered from a fully memory-stalled sibling.
    n_physical:
        Number of physical cores, when the caller already knows it (the
        engine passes the topology's count so the per-quantum hot path
        skips the ``vcore_physical.max()`` scan).
    lane_of, n_lanes:
        Several independent runs ("lanes") on copies of one machine in a
        single call: ``lane_of`` gives each thread's lane (``None``: all in
        one).  Every per-core count and sum is keyed by lane offset, so a
        lane only ever shares with itself, and its threads — contiguous
        and in order — accumulate exactly as they would alone.

    Returns
    -------
    Cycles/second per thread, shape ``(n,)``.
    """
    check_in_range(smt_efficiency, 0.1, 1.0, "smt_efficiency")
    check_in_range(smt_stall_bonus, 0.0, 1.0 - smt_efficiency + 1e-9, "smt_stall_bonus")
    vcore_of = np.asarray(vcore_of, dtype=np.int64)
    n = vcore_of.size
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    n_vcores = vcore_physical.size
    if np.any(vcore_of < 0) or np.any(vcore_of >= n_vcores):
        raise ValueError("vcore_of contains an invalid virtual core id")
    n_phys = (
        int(vcore_physical.max()) + 1 if n_physical is None else int(n_physical)
    )

    # Bincount keys: (lane, virtual core) and (lane, physical core).
    vkey = vcore_of
    pkey = vcore_physical[vcore_of]
    if lane_of is not None:
        vkey = vkey + lane_of * n_vcores
        pkey = pkey + lane_of * n_phys
    # Threads per virtual core (OS time sharing when oversubscribed).
    vcore_load = np.bincount(vkey, minlength=n_lanes * n_vcores)
    # Busy virtual cores per physical core (SMT sharing).
    phys_busy = busy_vcores_per_core(vcore_load, vcore_physical, n_phys)

    freq = vcore_freq_hz[vcore_of]
    share_vcore = 1.0 / vcore_load[vkey]
    shared = phys_busy[pkey] > 1

    smt_factor = np.where(shared, smt_efficiency, 1.0)
    if stall_fraction is not None and shared.any():
        stall = np.clip(np.asarray(stall_fraction, dtype=np.float64), 0.0, 1.0)
        if stall.shape != (n,):
            raise ValueError("stall_fraction must match vcore_of's shape")
        # Mean stall of *other* threads on my physical core:
        # (sum over core - mine) / (count over core - 1).
        stall_sum = np.bincount(pkey, weights=stall, minlength=phys_busy.size)
        count = np.bincount(pkey, minlength=phys_busy.size)
        others = np.maximum(count[pkey] - 1, 1)
        sibling_stall = (stall_sum[pkey] - stall) / others
        bonus = np.where(count[pkey] > 1, smt_stall_bonus * sibling_stall, 0.0)
        smt_factor = np.where(shared, smt_factor + bonus, smt_factor)
    return freq * share_vcore * np.minimum(smt_factor, 1.0)
