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

from repro.core.config import DikeConfig
from repro.core.observer import ObserverReport
from repro.obs.events import NULL_BUS, PairProposed
from repro.util.stats import coefficient_of_variation, left_sum

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
        self, report: ObserverReport, placement: dict[int, int]
    ) -> list[ThreadPair]:
        """Form violator pairs (see :meth:`_select`), emitting one
        ``PairProposed`` event per pair when observability is on."""
        pairs = self._select(report, placement)
        if self.bus.enabled:
            for pair in pairs:
                self.bus.emit(
                    PairProposed(*self.bus.now, t_l=pair.t_l, t_h=pair.t_h)
                )
        return pairs

    def _select(
        self, report: ObserverReport, placement: dict[int, int]
    ) -> list[ThreadPair]:
        """Form up to ``swap_size / 2`` violator pairs for this quantum.

        Parameters
        ----------
        report:
            The Observer's digest (access rates, classes, core identity).
        placement:
            tid -> vcore for every live thread.
        """
        if report.is_fair(self.config.fairness_threshold):
            return []

        tids = [t for t in placement if t in report.access_rate]
        if len(tids) < 2:
            return []
        # Ascending by access rate; tid tiebreak for determinism.
        tids.sort(key=lambda t: (report.access_rate[t], t))
        n = len(tids)
        n_pairs = self.config.n_pairs

        classes = {t: report.classification.get(t, "C") for t in tids}
        if len(set(classes.values())) == 1:
            # All threads the same type: pair the two ends regardless of the
            # placement rule (Algorithm 1, lines 10-15).
            pairs = []
            for k in range(min(n_pairs, n // 2)):
                pairs.append(ThreadPair(t_l=tids[k], t_h=tids[n - 1 - k]))
            return pairs

        # The ideal mapping binds the top-k access-rate threads to the k
        # occupied high-bandwidth cores ("the smallest possible number of
        # threads running on the wrong core type").  A violator is a thread
        # whose rate rank disagrees with its core tier; additionally the
        # classic type rule applies (a compute-class thread sitting on a
        # high-BW core violates even when ranks happen to agree).
        on_high = {t: placement[t] in report.high_bw_cores for t in tids}
        k_high = sum(1 for t in tids if on_high[t])
        top_rank = {t: i >= n - k_high for i, t in enumerate(tids)}

        def violates(tid: int) -> bool:
            if top_rank[tid] and not on_high[tid]:
                return True  # high-access thread stuck on a low-BW core
            if not top_rank[tid] and on_high[tid] and classes[tid] == "C":
                return True  # compute thread hogging a high-BW core
            return False

        pairs: list[ThreadPair] = []
        paired: set[int] = set()
        head, tail = 0, n - 1
        while len(pairs) < n_pairs and head < tail:
            while head < tail and not violates(tids[head]):
                head += 1
            while tail > head and not violates(tids[tail]):
                tail -= 1
            if head >= tail:
                break
            pairs.append(ThreadPair(t_l=tids[head], t_h=tids[tail]))
            paired.update((tids[head], tids[tail]))
            head += 1
            tail -= 1

        if self.config.rotation_fallback and len(pairs) < n_pairs:
            # Fewer violators than swapSize allows while the system is
            # unfair: first rotate *within* the process groups whose own
            # threads have dispersed rates (pairing a group's slowest with
            # its fastest directly equalises the progress Eqn. 4 scores),
            # then rotate the global extremes so the placement rule is
            # obeyed on average over several quanta (see DikeConfig).
            for group_tids in self._unfair_groups(report, tids):
                if len(pairs) >= n_pairs:
                    break
                lo_t = next((t for t in group_tids if t not in paired), None)
                hi_t = next(
                    (t for t in reversed(group_tids) if t not in paired and t != lo_t),
                    None,
                )
                if lo_t is None or hi_t is None:
                    continue
                pairs.append(ThreadPair(t_l=lo_t, t_h=hi_t))
                paired.update((lo_t, hi_t))
            lo, hi = 0, n - 1
            while len(pairs) < n_pairs and lo < hi:
                while lo < hi and tids[lo] in paired:
                    lo += 1
                while hi > lo and tids[hi] in paired:
                    hi -= 1
                if lo >= hi:
                    break
                pairs.append(ThreadPair(t_l=tids[lo], t_h=tids[hi]))
                paired.update((tids[lo], tids[hi]))
                lo += 1
                hi -= 1
        return pairs

    def _unfair_groups(
        self, report: ObserverReport, sorted_tids: list[int]
    ) -> list[list[int]]:
        """Process groups whose own threads show dispersed access rates.

        Returns each qualifying group's tids in ascending rate order,
        most-dispersed (by bandwidth-weighted cv) first.  Groups carrying a
        negligible share of traffic are skipped — their dispersion is not a
        memory-fairness problem a swap can fix.
        """
        if report.group_of is None:
            return []
        rates = report.access_rate
        by_group: dict[int, list[int]] = {}
        for t in sorted_tids:
            g = report.group_of.get(t)
            if g is not None:
                by_group.setdefault(g, []).append(t)
        total = left_sum(rates[t] for t in sorted_tids) or 1.0
        scored: list[tuple[float, list[int]]] = []
        for g, tids in by_group.items():
            if len(tids) < 2:
                continue
            weight = left_sum(rates[t] for t in tids) / total
            if weight < 0.05:
                continue
            cv = coefficient_of_variation([rates[t] for t in tids])
            if cv > self.config.fairness_threshold:
                scored.append((weight * cv, tids))
        scored.sort(key=lambda x: -x[0])
        return [tids for _, tids in scored]
