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

The report is columnar (:class:`ObserverReport`): arrays indexed by tid
and by vcore, which Dike's stages and its variants read directly.  Only
the traced ``ObserverSample`` event carries per-thread dicts, built from
the columns when a trace is recording.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.config import DikeConfig
from repro.obs.events import (
    NULL_BUS,
    ClassificationChanged,
    FairnessComputed,
    ObserverSample,
)
from repro.sim.counters import QuantumCounters
from repro.util.stats import coefficient_of_variation, left_sums

__all__ = [
    "classify",
    "classify_column",
    "NO_GROUP",
    "ObserverReport",
    "Observer",
    "GroupLayout",
]


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

#: ``ObserverReport.group_by_tid`` of a thread outside every process group
NO_GROUP = int(np.iinfo(np.int64).min)


@dataclass(frozen=True, init=False, eq=False)
class ObserverReport:
    """The Observer's per-quantum digest consumed by Selector/Predictor.

    The report is columnar:

    ``tids``
        The sampled tids in counter-row order (a tid that hit a barrier
        mid-quantum has two rows).
    ``rate_by_tid``, ``miss_by_tid``, ``is_m_by_tid``, ``present_by_tid``
        Access rate, LLC miss rate, memory-intensive (``"M"``) mask and
        presence, indexed by tid.  A tid with two rows reads as its last.
    ``demand_by_tid``
        Demand estimate by tid (the decaying peak of the thread's access
        rate); ``inf`` for a thread never seen active.
    ``group_by_tid``
        Process group by tid; :data:`NO_GROUP` for a thread without one.
    ``bw_by_vcore``, ``high_by_vcore``
        CoreBW capability estimate (accesses/second) and high-bandwidth
        mask, indexed by vcore.
    ``fairness``
        Dike's ``getSystemFairness()`` value (lower = fairer).

    A tid-indexed column has one entry more than the largest tid it
    covers, a vcore-indexed one one entry more than the largest vcore.
    That last entry is the *absent* entry: rate and miss rate 0, not
    present, class ``"C"``, demand ``inf``, no group, CoreBW ``nan``, not
    high.  :meth:`tid_slots` and :meth:`vcore_slots` send any id a
    column does not cover (negative or too large) to it.
    """

    tids: np.ndarray
    rate_by_tid: np.ndarray
    miss_by_tid: np.ndarray
    is_m_by_tid: np.ndarray
    present_by_tid: np.ndarray
    demand_by_tid: np.ndarray
    group_by_tid: np.ndarray
    bw_by_vcore: np.ndarray
    high_by_vcore: np.ndarray
    fairness: float

    def __init__(
        self,
        access_rate: Mapping[int, float],
        miss_rate: Mapping[int, float],
        classification: Mapping[int, str],
        core_bw: Mapping[int, float],
        high_bw_cores: frozenset[int],
        fairness: float,
        group_of: Mapping[int, int] | None = None,
        demand_estimate: Mapping[int, float] | None = None,
    ) -> None:
        """A report made by hand (tests) from per-thread mappings: they
        become the columns above and are not kept.  Tids and vcores must
        be non-negative."""
        rate_ids, miss_ids, class_ids, demand_ids = (
            _ids(m, "tid")
            for m in (access_rate, miss_rate, classification, demand_estimate or {})
        )
        n = 1 + max(
            (int(k.max()) for k in (rate_ids, miss_ids, class_ids, demand_ids) if k.size),
            default=-1,
        )
        rate, miss = np.zeros(n + 1), np.zeros(n + 1)
        present, is_m = np.zeros(n + 1, bool), np.zeros(n + 1, bool)
        demand = np.full(n + 1, np.inf)
        rate[rate_ids] = list(access_rate.values())
        present[rate_ids] = True
        miss[miss_ids] = list(miss_rate.values())
        is_m[class_ids] = [c == "M" for c in classification.values()]
        if demand_estimate:
            demand[demand_ids] = list(demand_estimate.values())
        vcore_ids, high_ids = _ids(core_bw, "vcore"), _ids(high_bw_cores, "vcore")
        n_vcores = 1 + max(
            (int(k.max()) for k in (vcore_ids, high_ids) if k.size), default=-1
        )
        bw = np.full(n_vcores + 1, np.nan)
        bw[vcore_ids] = list(core_bw.values())
        high = np.zeros(n_vcores + 1, bool)
        high[high_ids] = True
        self.__dict__.update(
            fairness=fairness,
            tids=rate_ids,
            rate_by_tid=rate,
            miss_by_tid=miss,
            is_m_by_tid=is_m,
            present_by_tid=present,
            demand_by_tid=demand,
            group_by_tid=_group_column(group_of, n),
            bw_by_vcore=bw,
            high_by_vcore=high,
            _n_classified=len(classification),
        )

    @classmethod
    def of_columns(cls, **fields) -> "ObserverReport":
        """A report holding ``fields``: every field above, plus
        ``_n_classified`` (the number of distinct tids).  The arrays are
        shared, not copied: none may change afterwards."""
        report = cls.__new__(cls)
        report.__dict__.update(fields)
        return report

    # ----------------------------------------------------------- lookups

    def tid_slots(self, tids: np.ndarray) -> np.ndarray:
        """Index of each tid into the tid-indexed columns."""
        return np.minimum(np.maximum(tids, -1), self.rate_by_tid.size - 1)

    def vcore_slots(self, vcores: np.ndarray) -> np.ndarray:
        """Index of each vcore into the vcore-indexed columns."""
        return np.minimum(np.maximum(vcores, -1), self.bw_by_vcore.size - 1)

    def rate_of(self, tid: int) -> float:
        """The access rate of ``tid``; 0.0 if it was not sampled."""
        return self.rate_by_tid.item(_slot(tid, self.rate_by_tid.size))

    def core_bw_of(self, vcore: int) -> float:
        """The CoreBW estimate of ``vcore``; ``nan`` off the machine."""
        return self.bw_by_vcore.item(_slot(vcore, self.bw_by_vcore.size))

    def demand_of(self, tid: int) -> float:
        """The demand estimate of ``tid``; ``inf`` if never seen active."""
        return self.demand_by_tid.item(_slot(tid, self.demand_by_tid.size))

    # ----------------------------------------------------------- summary

    def is_fair(self, threshold: float) -> bool:
        """True when no scheduling action is needed this quantum."""
        return bool(np.isnan(self.fairness)) or self.fairness < threshold

    def n_memory(self) -> int:
        return int(np.count_nonzero(self.is_m_by_tid))

    def n_compute(self) -> int:
        return self._n_classified - self.n_memory()


def _slot(i: int, size: int) -> int:
    """Column index of id ``i`` in a column of ``size`` (last = absent)."""
    return i if 0 <= i < size else -1


def _ids(keys, what: str) -> np.ndarray:
    """The ids ``keys`` iterates, as an array; they must be >= 0."""
    ids = np.fromiter(keys, np.int64, len(keys))
    if ids.size and ids.min() < 0:
        raise ValueError(f"{what}s must be >= 0, got {int(ids.min())}")
    return ids


def _group_column(groups: Mapping[int, int] | None, n: int) -> np.ndarray:
    """``groups`` as a tid-indexed column over tids ``0..n-1`` plus the
    absent entry; :data:`NO_GROUP` where a tid has no group."""
    column = np.full(n + 1, NO_GROUP, dtype=np.int64)
    if groups:
        tids = np.fromiter(groups, np.int64, len(groups))
        inside = (tids >= 0) & (tids < n)
        column[tids[inside]] = np.fromiter(groups.values(), np.int64, len(groups))[inside]
    return column


class Observer:
    """Stateful Observer: feed counters, get an :class:`ObserverReport`.

    ``update`` works on the counter columns (``QuantumCounters.tid``,
    ``.vcore``, ...) rather than on per-thread sample objects, keeps
    CoreBW as per-vcore arrays and the demand estimate as a tid-indexed
    array, and returns a columnar report.  Every reported number equals
    the per-sample reading of the module docstring bit for bit; sums run
    left to right, as a plain Python loop would add them.  Where a tid
    has two rows (it hit a barrier mid-quantum: an active row, then an
    idle zero row), the report's columns and the CoreBW probe's C/M test
    use the *last* row, while the fairness signal and the demand estimate
    use the *active* one.  Tids must be non-negative.
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
        n_tids = 1 + max((t for t in self.groups or () if t >= 0), default=-1)
        #: tid -> process group, built once (grown if a larger tid shows up)
        self._group_by_tid = _group_column(self.groups, n_tids)
        self.reset()

    def reset(self) -> None:
        #: per-vcore CoreBW windows, one column per vcore, newest probe in
        #: the last row; an unfilled window is zero-padded at the top,
        #: which leaves its left-to-right sum unchanged
        self._bw_window = np.zeros((self._window, self.n_vcores))
        self._bw_rows = list(self._bw_window)
        self._bw_count = np.zeros(self.n_vcores, dtype=np.int64)
        #: per-vcore moving mean of probes, nan until first probed; the
        #: last entry is the report's absent vcore and is never probed
        self._bw_mean = np.full(self.n_vcores + 1, np.nan)
        self._best_probe = float("nan")
        slots = self._group_by_tid.size
        #: tid -> decaying peak of observed access rate (the thread's
        #: *demand*: what it would consume given an uncontended fast core)
        self._demand = np.zeros(slots)
        #: tids seen active
        self._seen = np.zeros(slots, bool)
        #: the fairness signal's group layout and the active tids it is for
        self._layout: GroupLayout | None = None
        self._layout_key: bytes | None = None
        #: the previous report (for classification-change events)
        self._prev: ObserverReport | None = None

    # ------------------------------------------------------------------ API

    def update(self, counters: QuantumCounters) -> ObserverReport:
        """Digest one quantum of counter readings."""
        tid = counters.tid
        rows_per_tid = self._rows_per_tid(tid)
        slots = rows_per_tid.size
        own_rate = counters.access_rate
        rate = counters.ips if self.config.contention_metric == "ipc" else own_rate
        miss = counters.miss_rate
        is_m = classify_column(miss, self.config.classification_miss_threshold)

        present = rows_per_tid.astype(bool)
        n_tids = np.count_nonzero(rows_per_tid)
        last_rate, last_miss = rate, miss
        if n_tids < tid.size:
            # A tid with two rows reads as its last: every row of a tid
            # takes the values of that row, so the scatters below write
            # one value per tid whatever order they run in.  The CoreBW
            # probe's C/M test reads the last row too.
            last = np.full(slots, -1)
            np.maximum.at(last, tid, np.arange(tid.size))
            rows = last[tid]
            last_rate, last_miss, is_m = rate[rows], miss[rows], is_m[rows]
        rate_by_tid = np.zeros(slots)
        rate_by_tid[tid] = last_rate
        miss_by_tid = np.zeros(slots)
        miss_by_tid[tid] = last_miss
        is_m_by_tid = np.zeros(slots, bool)
        is_m_by_tid[tid] = is_m

        # Barrier-idle threads don't define fairness or demand.
        active = counters.instructions > 0.0
        active_tids = tid[active]
        active_own = own_rate[active]
        self._update_demand(active_tids, active_own)

        # Probe-based CoreBW update: only a memory-intensive occupant
        # reveals what its core can deliver.  A vcore outside the machine
        # (the daemon reports -1 for an unreadable affinity) probes nothing;
        # as unsigned, a negative vcore is out of range too.
        vcore = counters.vcore
        on_machine = vcore.astype(np.uint64) < self.n_vcores
        probed = vcore[is_m & active & on_machine]
        if probed.size:
            bandwidth = np.asarray(counters.core_bandwidth, dtype=np.float64)
            self._probe(probed, bandwidth)
        bw_mean = self._bw_mean
        bw = np.where(np.isfinite(bw_mean), bw_mean, self._best_probe)
        bw[-1] = np.nan

        active_rate = active_own if rate is own_rate else rate[active]
        report = ObserverReport.of_columns(
            fairness=self._system_fairness(active_tids, active_rate),
            tids=tid,
            rate_by_tid=rate_by_tid,
            miss_by_tid=miss_by_tid,
            is_m_by_tid=is_m_by_tid,
            present_by_tid=present,
            demand_by_tid=np.where(self._seen, self._demand, np.inf),
            group_by_tid=self._group_by_tid,
            bw_by_vcore=bw,
            high_by_vcore=self._identify_high_bw(bw),
            _n_classified=int(n_tids),
        )
        if self.bus.enabled:
            self._emit(report)
        self._prev = report
        return report

    # ------------------------------------------------------------- internals

    def _rows_per_tid(self, tid: np.ndarray) -> np.ndarray:
        """Rows of each tid, tid-indexed, with the absent entry last (0).

        Grows the tid-indexed state first when ``tid`` holds a tid it
        does not cover yet; tids must be non-negative.
        """
        slots = self._group_by_tid.size
        try:
            counts = np.bincount(tid, minlength=slots)
        except ValueError:
            raise ValueError(f"tids must be >= 0, got {int(tid.min())}") from None
        grow = counts.size + (counts[-1] > 0) - slots
        if grow > 0:  # pad with absent entries, keeping the absent one last
            self._group_by_tid = np.concatenate(
                (self._group_by_tid, np.full(grow, NO_GROUP))
            )
            self._demand = np.concatenate((self._demand, np.zeros(grow)))
            self._seen = np.concatenate((self._seen, np.zeros(grow, bool)))
            counts = np.bincount(tid, minlength=slots + grow)
        return counts

    def _emit(self, report: ObserverReport) -> None:
        """The traced events of ``report``; their per-thread dicts hold
        each sampled tid once, in order of its first row."""
        now = self.bus.now
        rows = report.tids
        keys = rows.tolist()

        def by_tid(column: np.ndarray) -> dict:
            # a tid's first row places it; every row of it reads the same
            # column entry (its last row's)
            return dict(zip(keys, column[rows].tolist()))

        classification = by_tid(_CLASS_NAMES[report.is_m_by_tid.astype(np.intp)])
        self.bus.emit(
            ObserverSample(
                *now,
                access_rate=by_tid(report.rate_by_tid),
                miss_rate=by_tid(report.miss_by_tid),
                classification=classification,
                core_bw=dict(enumerate(report.bw_by_vcore[:-1].tolist())),
                high_bw_cores=tuple(report.high_by_vcore.nonzero()[0].tolist()),
            )
        )
        previous = self._prev
        if previous is not None:
            for t, new in classification.items():
                slot = _slot(t, previous.present_by_tid.size)
                old = "M" if previous.is_m_by_tid[slot] else "C"
                if previous.present_by_tid[slot] and old != new:
                    self.bus.emit(ClassificationChanged(*now, tid=t, old=old, new=new))
        fairness = report.fairness
        threshold = self.config.fairness_threshold
        self.bus.emit(
            FairnessComputed(
                *now,
                value=float(fairness),
                threshold=threshold,
                fair=bool(np.isnan(fairness) or fairness < threshold),
            )
        )

    def _update_demand(self, tids: np.ndarray, rates: np.ndarray) -> None:
        """``demand[t] = max(rate, 0.75 * demand[t])`` for each active row
        (a tid has at most one)."""
        decayed = np.multiply(self._demand[tids], 0.75)
        self._demand[tids] = np.where(decayed > rates, decayed, rates)
        self._seen[tids] = True

    def _probe(self, vcores: np.ndarray, bw: np.ndarray) -> None:
        """Fold one probe per entry of ``vcores`` (row order) into CoreBW."""
        top = np.maximum.reduce(bw[vcores]).item()
        if not math.isfinite(self._best_probe) or top > self._best_probe:
            self._best_probe = top
        hits = np.bincount(vcores, minlength=self.n_vcores)
        probed = hits.nonzero()[0]
        window = self._bw_window
        # a vcore probed twice shifts twice
        twice = probed.size < vcores.size
        for k in range(int(np.maximum.reduce(hits)) if twice else 1):
            cols = (hits > k).nonzero()[0] if k else probed
            window[:-1, cols] = window[1:, cols]
            window[-1, cols] = bw[cols]
        count = self._bw_count
        np.add(count, hits, out=count)
        np.minimum(count, self._window, out=count)
        # Window rows add oldest first, each over every vcore at once; an
        # unprobed vcore's mean comes out as it was.
        rows = self._bw_rows
        total = rows[0] + 0.0
        for row in rows[1:]:
            total += row
        np.divide(total, count, out=self._bw_mean[:-1], where=count > 0)

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
        key = tids.tobytes()
        if key != self._layout_key:  # the active threads changed
            gid = self._group_by_tid[tids]
            gid[gid == NO_GROUP] = -1  # threads without a group share one
            self._layout, self._layout_key = GroupLayout(gid), key
        sums, cv = self._layout.sums_and_cv(rates)
        total = left_sums(sums).item()
        if total <= 0.0:
            return 0.0  # nobody is using memory: trivially fair
        counted = np.isfinite(cv)  # size-1 groups carry no dispersion
        n_counted = np.count_nonzero(counted)
        if not n_counted:
            return 0.0
        if n_counted < cv.size:
            sums, cv = sums[counted], cv[counted]
        return left_sums(sums / total * cv).item()

    def _identify_high_bw(self, core_bw: np.ndarray) -> np.ndarray:
        """Median split of capability estimates over all cores.

        Unprobed (optimistic) cores sit at the best probed value, so they
        land in the high half and attract exploration.
        """
        finite = np.isfinite(core_bw)
        ordered = core_bw[finite]
        if not ordered.size:
            return finite
        ordered.sort()
        mid = ordered.size // 2
        if ordered.size % 2:
            median = ordered[mid]
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2.0
        # ">= median and > min" keeps the split meaningful when estimates
        # tie at the top (e.g. many optimistically-initialised cores) and
        # returns the empty set when every core looks identical.
        return finite & (core_bw >= median) & (core_bw > ordered[0])


class GroupLayout:
    """How rows with group ids ``gid`` stack by group.

    Groups are numbered in order of their first row.  Each group is one
    row of the padded matrix ``index``: its rows in row order, then
    ``gid.size`` as padding.  The matrix keeps the groups sorted by size,
    so the groups of one size form a bucket of consecutive matrix rows,
    and a row-wise reduction over a bucket of gathered values equals the
    1-D reduction over each group's values.
    """

    def __init__(self, gid: np.ndarray) -> None:
        n = gid.size
        order = gid.argsort(kind="stable")
        ordered = gid[order]
        starts = np.concatenate(([0], (ordered[1:] != ordered[:-1]).nonzero()[0] + 1))
        sizes = np.concatenate((starts[1:], [n])) - starts
        first_rows = order[starts]
        stored = np.lexsort((first_rows, sizes))  # by size, then first row
        sizes, starts = sizes[stored], starts[stored]
        cols = np.arange(sizes[-1])
        index = order[np.minimum(starts[:, None] + cols, n - 1)]
        index[cols >= sizes[:, None]] = n
        self.index = index
        #: matrix row of each group, by group number
        self.by_number = first_rows[stored].argsort()
        #: group sizes, by group number
        self.sizes = sizes[self.by_number]
        self._row_sizes = sizes
        bounds = [0, *((sizes[1:] != sizes[:-1]).nonzero()[0] + 1).tolist(), sizes.size]
        #: ``(first row, end row, size)`` of every bucket of groups of size >= 2
        self.buckets = [
            (lo, hi, int(sizes[lo]))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if sizes[lo] >= 2
        ]

    def members(self, group: int) -> np.ndarray:
        """The rows of group number ``group``, in row order."""
        return self.index[self.by_number[group], : self.sizes[group]]

    def sums_and_cv(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per group, by number: the left-to-right sum of its rows'
        ``values``, and their coefficient of variation (population std
        over |mean|; ``nan`` for a single row or a zero mean)."""
        padded = np.concatenate((values, _ZERO))[self.index]
        # zero padding leaves a sequential sum as it is
        sums = np.add.accumulate(padded, axis=1)[:, -1]
        # np.mean and np.std over each group, made of the ufunc calls they
        # make (add.reduce, true_divide, subtract, square, sqrt), so the
        # bits match without their Python wrappers.  Only the reductions
        # need a bucket; the elementwise steps run over the whole matrix.
        n, sizes = sums.size, self._row_sizes
        mean, var = np.zeros(n), np.zeros(n)  # single rows keep mean 0
        for lo, hi, size in self.buckets:
            np.add.reduce(padded[lo:hi, :size], axis=1, out=mean[lo:hi])
        np.true_divide(mean, sizes, out=mean)
        dev = np.subtract(padded, mean[:, None])
        np.square(dev, out=dev)
        for lo, hi, size in self.buckets:
            np.add.reduce(dev[lo:hi, :size], axis=1, out=var[lo:hi])
        np.true_divide(var, sizes, out=var)
        np.sqrt(var, out=var)
        cv = np.empty(n)
        cv.fill(np.nan)
        np.divide(var, np.abs(mean), out=cv, where=mean != 0.0)
        by_number = self.by_number
        # a sum started from the first value can be -0.0 where one started
        # from 0.0 gives 0.0
        return sums[by_number] + 0.0, cv[by_number]


#: the padding value of ``GroupLayout.sums_and_cv``
_ZERO = np.zeros(1)
