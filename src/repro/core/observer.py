"""Dike's Observer: thread classification and core identification (§III-A).

Per quantum the Observer:

* reads each thread's **memory access rate** (LLC misses / second) and
  **LLC miss rate** from the hardware-counter sample;
* classifies threads *memory-intensive* (``M``, miss rate > 10 %) or
  *compute-intensive* (``C``) — re-classified every quantum because
  "memory intensity of a thread dynamically changes as thread goes through
  execution phases";
* maintains ``CoreBW`` — the moving mean of bandwidth *deliverable by*
  each virtual core — and partitions cores into *high-* and
  *low-bandwidth* halves at the median.

CoreBW semantics (an interpretation the paper leaves implicit): a core's
achieved bandwidth only reveals its capability when its occupant actually
stresses the memory path.  The Observer therefore folds a quantum's
achieved bandwidth into a core's moving mean **only when the occupant was
memory-intensive** — such an occupant acts as a *bandwidth probe* ("we
assume that if a thread migrates to a new core, it consumes the new core's
entire memory bandwidth").  A core that has never been probed reports an
**optimistic** estimate (the best probed value seen anywhere): optimism
drives exploratory swaps onto unknown cores, and the closed loop corrects
the estimate one quantum later — exactly the feedback-absorbs-model-error
argument of §III-C.  Probed estimates embed current contention, so "a core
may become low-bandwidth due to contention" falls out naturally.

Fairness signal (``getSystemFairness``): the paper defines fairness
per application — "fairness in an application means that threads'
runtimes are approximately close together" — and Eqn. 4 averages a
per-benchmark cv.  The runtime gate mirrors that: the signal is the
**bandwidth-weighted mean over process groups of the cv of each group's
thread access rates**.  A raw global cv would compare memory apps against
compute apps and read "unfair" forever; an unweighted group mean would let
an idle compute app's noisy near-zero rates dominate.  Weighting each
group's internal dispersion by its share of total traffic measures exactly
what Dike can fix: unequal memory progress among sibling threads that
actually use memory.  (Group membership is OS-visible — it is the
process/tgid of each thread.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.core.config import DikeConfig
from repro.obs.events import (
    NULL_BUS,
    ClassificationChanged,
    FairnessComputed,
    ObserverSample,
)
from repro.sim.counters import QuantumCounters
from repro.util.stats import coefficient_of_variation

__all__ = ["classify", "classify_column", "ObserverReport", "Observer"]


def classify(miss_rate: float, threshold: float) -> str:
    """The paper's C/M rule, pinned in one place: ``"M"`` iff the LLC
    miss rate *strictly exceeds* the threshold (10 % per Xie & Loh).

    The boundary matters: a thread at exactly ``miss_rate == threshold``
    is compute-intensive (``"C"``) — the paper says "miss rate > 10 %",
    not ">=".  Every classification site (Observer, ablations, tests)
    must call this function — or :func:`classify_column`, its array
    form — rather than re-spelling the comparison.
    """
    return "M" if miss_rate > threshold else "C"


def classify_column(miss_rates: np.ndarray, threshold: float) -> np.ndarray:
    """:func:`classify` over a column of miss rates: ``True`` where the
    thread is memory-intensive (``"M"``)."""
    return miss_rates > threshold


#: class name by ``classify_column`` value (index 0 = ``False``)
_CLASS_NAMES = np.array(["C", "M"], dtype=object)


@dataclass(frozen=True)
class ObserverReport:
    """The Observer's per-quantum digest consumed by Selector/Predictor.

    Attributes
    ----------
    access_rate:
        tid -> measured access rate this quantum (misses/second).
    miss_rate:
        tid -> LLC miss ratio this quantum.
    classification:
        tid -> ``"M"`` or ``"C"``.
    core_bw:
        vcore -> CoreBW capability estimate (accesses/second).
    high_bw_cores:
        Set of vcores currently identified as high-bandwidth.
    fairness:
        Dike's ``getSystemFairness()`` value (lower = fairer).
    cache_occupancy:
        tid -> allocated LLC share (MB) when the run uses an active
        cache backend (`repro.sim.llc`); ``None`` under the default
        ``NullLLC``.  Cache-aware policies (lfoc/bliss) read this.
    """

    access_rate: dict[int, float]
    miss_rate: dict[int, float]
    classification: dict[int, str]
    core_bw: dict[int, float]
    high_bw_cores: frozenset[int]
    fairness: float
    group_of: dict[int, int] | None = None
    demand_estimate: dict[int, float] | None = None
    cache_occupancy: dict[int, float] | None = None

    def is_fair(self, threshold: float) -> bool:
        """True when no scheduling action is needed this quantum."""
        return bool(np.isnan(self.fairness)) or self.fairness < threshold

    def n_memory(self) -> int:
        return sum(1 for c in self.classification.values() if c == "M")

    def n_compute(self) -> int:
        return sum(1 for c in self.classification.values() if c == "C")


class Observer:
    """Stateful Observer: feed counters, get an :class:`ObserverReport`.

    ``update`` works on the counter columns (``QuantumCounters.tid``,
    ``.vcore``, ...) rather than on per-thread sample objects, and keeps
    CoreBW as per-vcore arrays.  Every reported number equals the
    per-sample reading of the module docstring bit for bit; sums run left
    to right, as a plain Python loop would add them.  Where a tid has two
    rows (it hit a barrier mid-quantum: an active row, then an idle zero
    row), the dict views and the CoreBW probe's C/M test use the *last*
    row, while the fairness signal and the demand estimate use the
    *active* one.
    """

    def __init__(
        self,
        config: DikeConfig,
        n_vcores: int,
        groups: dict[int, int] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        config:
            Dike configuration (thresholds, CoreBW window).
        n_vcores:
            Number of virtual cores on the machine.
        groups:
            tid -> process-group id, used by the per-application fairness
            signal.  ``None`` degrades to a single global group.
        """
        self.config = config
        self.n_vcores = n_vcores
        self.groups = dict(groups) if groups else None
        self.bus = NULL_BUS
        self._window = config.corebw_window
        self.reset()

    def reset(self) -> None:
        #: per-vcore CoreBW windows, newest probe last; an unfilled window
        #: is zero-padded at the front, which leaves its left-to-right sum
        #: unchanged
        self._bw_window = np.zeros((self.n_vcores, self._window))
        self._bw_count = np.zeros(self.n_vcores, dtype=np.int64)
        #: per-vcore moving mean of probes, nan until first probed
        self._bw_mean = np.full(self.n_vcores, np.nan)
        self._best_probe = float("nan")
        #: tid -> decaying peak of observed access rate (the thread's
        #: *demand*: what it would consume given an uncontended fast core)
        self._demand: dict[int, float] = {}
        #: tid -> previous quantum's classification (for change events)
        self._prev_class: dict[int, str] = {}

    # ------------------------------------------------------------------ API

    def update(self, counters: QuantumCounters) -> ObserverReport:
        """Digest one quantum of counter readings."""
        tid = counters.tid
        tids = tid.tolist()
        own_rate = counters.access_rate
        rate = counters.ips if self.config.contention_metric == "ipc" else own_rate
        miss = counters.miss_rate
        is_m = classify_column(miss, self.config.classification_miss_threshold)
        access_rate = dict(zip(tids, rate.tolist()))
        miss_rate = dict(zip(tids, miss.tolist()))
        classification = dict(zip(tids, _CLASS_NAMES[is_m.astype(np.intp)].tolist()))
        cached = counters.cache_mb > 0.0
        cache_occupancy = (
            dict(zip(tid[cached].tolist(), counters.cache_mb[cached].tolist()))
            if cached.any()
            else None
        )

        if len(access_rate) < len(tids):
            # A tid's class is the one of its last row.
            last_row = dict(zip(tids, range(len(tids))))
            rows = np.fromiter(map(last_row.__getitem__, tids), np.intp, len(tids))
            is_m = is_m[rows]

        # Barrier-idle threads don't define fairness or demand.
        active = counters.instructions > 0.0
        self._update_demand(tid[active].tolist(), own_rate[active])

        # Probe-based CoreBW update: only a memory-intensive occupant
        # reveals what its core can deliver.  A vcore outside the machine
        # (the daemon reports -1 for an unreadable affinity) probes nothing.
        vcore = counters.vcore
        probes = is_m & active & (vcore >= 0) & (vcore < self.n_vcores)
        if probes.any():
            bandwidth = np.asarray(counters.core_bandwidth, dtype=np.float64)
            self._probe(vcore[probes], bandwidth)

        bw_mean = self._bw_mean
        bw_values = np.where(np.isfinite(bw_mean), bw_mean, self._best_probe)
        core_bw = dict(zip(range(self.n_vcores), bw_values.tolist()))
        high = self._identify_high_bw(bw_values)
        fairness = self._system_fairness(tid[active], rate[active])
        if self.bus.enabled:
            now = self.bus.now
            self.bus.emit(
                ObserverSample(
                    *now,
                    access_rate=dict(access_rate),
                    miss_rate=dict(miss_rate),
                    classification=dict(classification),
                    core_bw=dict(core_bw),
                    high_bw_cores=tuple(sorted(high)),
                )
            )
            for t, cls in classification.items():
                old = self._prev_class.get(t)
                if old is not None and old != cls:
                    self.bus.emit(
                        ClassificationChanged(*now, tid=t, old=old, new=cls)
                    )
            self.bus.emit(
                FairnessComputed(
                    *now,
                    value=float(fairness),
                    threshold=self.config.fairness_threshold,
                    fair=bool(
                        np.isnan(fairness)
                        or fairness < self.config.fairness_threshold
                    ),
                )
            )
        self._prev_class = classification
        return ObserverReport(
            access_rate=access_rate,
            miss_rate=miss_rate,
            classification=classification,
            core_bw=core_bw,
            high_bw_cores=high,
            fairness=fairness,
            group_of=self.groups,
            demand_estimate=dict(self._demand),
            cache_occupancy=cache_occupancy,
        )

    def core_bw_value(self, vcore: int) -> float:
        """CoreBW estimate: probed moving mean, else the optimistic prior."""
        value = float(self._bw_mean[vcore])
        if math.isfinite(value):
            return value
        return self._best_probe  # nan before any probe anywhere

    # ------------------------------------------------------------- internals

    def _update_demand(self, tids: list[int], rates: np.ndarray) -> None:
        """``demand[t] = max(rate, 0.75 * demand[t])`` for each active row
        (a tid has at most one)."""
        demand = self._demand
        decayed = 0.75 * np.fromiter(
            map(demand.get, tids, repeat(0.0)), np.float64, len(tids)
        )
        demand.update(zip(tids, np.where(decayed > rates, decayed, rates).tolist()))

    def _probe(self, vcores: np.ndarray, bw: np.ndarray) -> None:
        """Fold one probe per entry of ``vcores`` (row order) into CoreBW."""
        top = float(bw[vcores].max())
        if not math.isfinite(self._best_probe) or top > self._best_probe:
            self._best_probe = top
        hits = np.bincount(vcores, minlength=self.n_vcores)
        probed = np.flatnonzero(hits)
        window = self._bw_window
        for k in range(int(hits.max())):  # a vcore probed twice shifts twice
            rows = probed if k == 0 else np.flatnonzero(hits > k)
            window[rows, :-1] = window[rows, 1:]
            window[rows, -1] = bw[rows]
        count = np.minimum(self._bw_count[probed] + hits[probed], self._window)
        self._bw_count[probed] = count
        self._bw_mean[probed] = _left_sums(window[probed]) / count

    def _system_fairness(self, tids: np.ndarray, rates: np.ndarray) -> float:
        """Bandwidth-weighted mean of per-group access-rate cv.

        See the module docstring for why this — not a raw global cv — is
        the faithful reading of the paper's ``getSystemFairness``.
        ``rates`` are the active rows' rates, ``tids`` their threads.
        """
        if rates.size < 2:
            return float("nan")
        if self.groups is None:
            return coefficient_of_variation(rates)
        gid = np.fromiter(
            map(self.groups.get, tids.tolist(), repeat(-1)), np.int64, tids.size
        )
        n_groups, buckets, first_seen = _group_layout(gid)
        sums = np.empty(n_groups)
        cv = np.full(n_groups, np.nan)
        for same, index in buckets:
            rows = rates[index]
            sums[same] = _left_sums(rows)
            if index.shape[1] >= 2:
                mean = rows.mean(axis=1)
                group_cv = np.full(same.size, np.nan)
                np.divide(
                    rows.std(axis=1), np.abs(mean), out=group_cv, where=mean != 0.0
                )
                cv[same] = group_cv
        # Sums run over the groups in order of first appearance.
        sums, cv = sums[first_seen], cv[first_seen]
        total = float(_left_sums(sums))
        if total <= 0.0:
            return 0.0  # nobody is using memory: trivially fair
        counted = np.isfinite(cv)  # size-1 groups carry no dispersion
        if not counted.any():
            return 0.0
        return float(_left_sums(sums[counted] / total * cv[counted]))

    def _identify_high_bw(self, core_bw: np.ndarray) -> frozenset[int]:
        """Median split of capability estimates over all cores.

        Unprobed (optimistic) cores sit at the best probed value, so they
        land in the high half and attract exploration.
        """
        finite = np.isfinite(core_bw)
        if not finite.any():
            return frozenset()
        ordered = np.sort(core_bw[finite])
        mid = ordered.size // 2
        if ordered.size % 2:
            median = ordered[mid]
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2.0
        # ">= median and > min" keeps the split meaningful when estimates
        # tie at the top (e.g. many optimistically-initialised cores) and
        # returns the empty set when every core looks identical.
        high = finite & (core_bw >= median) & (core_bw > ordered[0])
        return frozenset(np.flatnonzero(high).tolist())


def _group_layout(gid: np.ndarray) -> tuple:
    """How rows with group ids ``gid`` stack by group.

    Returns ``(n_groups, buckets, first_seen)``.  Groups are numbered in
    group-id order; each bucket holds the groups of one size as ``(group
    numbers, row-index matrix)``, a group's rows in row order, so the
    row-wise mean/std of the gathered matrix equal the 1-D results of
    ``coefficient_of_variation``.  ``first_seen`` orders the groups by
    their first row.
    """
    order = np.argsort(gid, kind="stable")
    ordered = gid[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, gid.size))
    buckets = []
    for size in np.unique(sizes).tolist():
        same = np.flatnonzero(sizes == size)
        buckets.append((same, order[starts[same, None] + np.arange(size)]))
    return sizes.size, buckets, np.argsort(order[starts])


def _left_sums(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis, added strictly left to right.

    ``cumsum`` accumulates sequentially; adding ``0.0`` turns a ``-0.0``
    result into ``0.0``, the one way it could differ from a Python loop
    that starts from zero (``total = 0.0; total += x``).
    """
    return np.cumsum(values, axis=-1)[..., -1] + 0.0
