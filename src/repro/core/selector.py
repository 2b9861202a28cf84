"""Dike's Selector: pair formation via the placement rule (Algorithm 1).

The Selector sorts live threads by memory access rate and forms up to
``swapSize / 2`` pairs ⟨t_l, t_h⟩ of **placement-rule violators**:

* the *ideal mapping* binds high-access (memory-intensive) threads to
  high-bandwidth cores and low-access (compute-intensive) threads to
  low-bandwidth cores;
* a **violator** breaks that rule — an ``M`` thread on a low-bandwidth
  core, or a ``C`` thread on a high-bandwidth core;
* the head pointer scans from the *lowest*-access end for a violating
  low-access thread, the tail pointer from the *highest*-access end for a
  violating high-access thread; each pair swaps one of each.

Special cases, straight from the paper: if the system is already fair
(cv below θ_f) nothing is selected; if **all threads are the same type**
the placement rule is moot and pairs are formed from the two ends of the
sorted array; if the pointers cross, fewer violators than ``swapSize``
exist and selection stops early ("Dike will naturally migrate threads so
that the rule is obeyed, on average, across several quanta").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DikeConfig
from repro.core.observer import NO_GROUP, GroupLayout, ObserverReport
from repro.obs.events import NULL_BUS, PairProposed
from repro.util.stats import left_sums

__all__ = ["ThreadPair", "Selector"]


@dataclass(frozen=True)
class ThreadPair:
    """One candidate swap: low-access thread ``t_l``, high-access ``t_h``."""

    t_l: int
    t_h: int


class Selector:
    """Stateless pair former (state lives in config + observer report)."""

    def __init__(self, config: DikeConfig) -> None:
        self.config = config
        self.bus = NULL_BUS

    def select(
        self, report: ObserverReport, tids: np.ndarray, vcores: np.ndarray
    ) -> list[ThreadPair]:
        """Form violator pairs (see :meth:`_select`) among the threads
        ``tids`` placed on ``vcores`` (aligned arrays, distinct tids in
        any order), emitting one ``PairProposed`` event per pair when
        observability is on."""
        pairs = self._select(report, tids, vcores)
        if self.bus.enabled:
            for pair in pairs:
                self.bus.emit(
                    PairProposed(*self.bus.now, t_l=pair.t_l, t_h=pair.t_h)
                )
        return pairs

    def _select(
        self, report: ObserverReport, tids: np.ndarray, vcores: np.ndarray
    ) -> list[ThreadPair]:
        """Form up to ``swap_size / 2`` violator pairs for this quantum.

        Works on the report's columns: the selectable threads (placed and
        measured) are sorted once, by access rate with a tid tiebreak, and
        every later step is a mask over that order.
        """
        if report.is_fair(self.config.fairness_threshold):
            return []

        slots = report.tid_slots(tids)
        measured = report.present_by_tid[slots]
        n = np.count_nonzero(measured)
        if n < 2:
            return []
        rates = report.rate_by_tid[slots]
        # Ascending by access rate; tid tiebreak for determinism.  Threads
        # without a measurement sort last and drop out; a measured tid is
        # its own column slot.
        order = np.lexsort((tids, rates, ~measured))[:n]
        tids, vcores, rates = tids[order], vcores[order], rates[order]
        n_pairs = self.config.n_pairs

        is_m = report.is_m_by_tid[tids]
        n_m = np.count_nonzero(is_m)
        if n_m == 0 or n_m == n:
            # All threads the same type: pair the two ends regardless of the
            # placement rule (Algorithm 1, lines 10-15).
            return _end_pairs(tids, np.arange(n), n_pairs)

        # The ideal mapping binds the top-k access-rate threads to the k
        # occupied high-bandwidth cores ("the smallest possible number of
        # threads running on the wrong core type").  A violator is a thread
        # whose rate rank disagrees with its core tier; additionally the
        # classic type rule applies (a compute-class thread sitting on a
        # high-BW core violates even when ranks happen to agree).
        on_high = report.high_by_vcore[report.vcore_slots(vcores)]
        top_rank = np.arange(n) >= n - np.count_nonzero(on_high)
        # high-access thread stuck on a low-BW core, or a compute thread
        # hogging a high-BW core (on high and not "M")
        violators = np.where(top_rank, ~on_high, on_high > is_m).nonzero()[0]
        # The head pointer takes violators from the low end, the tail
        # pointer from the high end, until they meet.
        pairs = _end_pairs(tids, violators, n_pairs)

        if self.config.rotation_fallback and len(pairs) < n_pairs:
            # Fewer violators than swapSize allows while the system is
            # unfair: first rotate *within* the process groups whose own
            # threads have dispersed rates (pairing a group's slowest with
            # its fastest directly equalises the progress Eqn. 4 scores),
            # then rotate the global extremes so the placement rule is
            # obeyed on average over several quanta (see DikeConfig).
            paired = np.zeros(n, bool)
            k = len(pairs)
            paired[violators[:k]] = paired[violators[violators.size - k :]] = True
            for members in self._unfair_groups(report, tids, rates):
                if len(pairs) >= n_pairs:
                    break
                free = members[~paired[members]]
                if free.size < 2:
                    continue
                lo, hi = free[0], free[-1]
                pairs.append(ThreadPair(t_l=int(tids[lo]), t_h=int(tids[hi])))
                paired[lo] = paired[hi] = True
            pairs += _end_pairs(tids, (~paired).nonzero()[0], n_pairs - len(pairs))
        return pairs

    def _unfair_groups(
        self, report: ObserverReport, tids: np.ndarray, rates: np.ndarray
    ) -> list[np.ndarray]:
        """Process groups whose own threads show dispersed access rates.

        ``tids`` and ``rates`` are the selectable threads and their rates
        in ascending rate order.  Returns each qualifying group's
        positions in that order, most-dispersed (by bandwidth-weighted
        cv) first.  Groups carrying a negligible share of traffic are
        skipped — their dispersion is not a memory-fairness problem a
        swap can fix.
        """
        gid = report.group_by_tid[tids]
        grouped = (gid != NO_GROUP).nonzero()[0]
        if grouped.size < 2:
            return []
        total = float(left_sums(rates)) or 1.0
        layout = GroupLayout(gid[grouped])
        sums, cv = layout.sums_and_cv(rates[grouped])
        weight = sums / total
        dispersed = (
            (layout.sizes >= 2)
            & ~(weight < 0.05)
            & (cv > self.config.fairness_threshold)
        )
        chosen = dispersed.nonzero()[0]
        chosen = chosen[np.argsort(-(weight * cv)[chosen], kind="stable")]
        return [grouped[layout.members(g)] for g in chosen.tolist()]


def _end_pairs(tids: np.ndarray, ends: np.ndarray, n_pairs: int) -> list[ThreadPair]:
    """Pair ``ends[0]`` with ``ends[-1]``, ``ends[1]`` with ``ends[-2]``
    and so on inward, at most ``n_pairs`` pairs, as positions of ``tids``."""
    k = max(0, min(n_pairs, ends.size // 2))
    low = tids[ends[:k]].tolist()
    high = tids[ends[::-1][:k]].tolist()
    return [ThreadPair(t_l=lo, t_h=hi) for lo, hi in zip(low, high)]
