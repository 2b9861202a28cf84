"""lfoc's clusters, bliss's blacklist, dike-lms's shadow report and the
dike-hier rebalancer on the report's columns, held to the dict code they
replaced.

``ObserverReport`` is columns only.  The four policies below once read
its per-thread dicts; ``reference_*`` keep that dict code here, as the
specification the column code is held to, and ``dict_views`` rebuilds
the dicts from the columns the way the report's views did (a tid keyed
at its first row, valued by its last).  The reference gets the placement
as the dict the engine used to hand over: ascending tids.

Hypothesis draws Observer-built reports whose rates tie (``-0.0``
against ``0.0`` too), a tid with an active and an idle row (a barrier
hit mid-quantum), placements holding live threads the report never
sampled, and rebalancer clusters that are empty.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache_aware import Blacklister, CacheClusterer
from repro.core.config import DikeConfig
from repro.core.decider import Decider
from repro.core.hierarchical import CLUSTER_SIGNALS, InterClusterRebalancer
from repro.core.lms import LMSRatePredictor
from repro.core.observer import Observer, ObserverReport
from repro.core.predictor import PairPrediction
from repro.core.selector import Selector, ThreadPair
from repro.obs.events import CacheClusterFormed, EventBus, RebalanceExecuted
from repro.schedulers.base import Placement
from repro.sim.counters import QuantumCounters, ThreadSample
from repro.util.stats import left_sum

N_VCORES = 8
MAX_TID = 15
#: few distinct miss counts over one runtime, so rates tie (-0.0 ties 0.0)
MISSES = st.sampled_from([0.0, -0.0, 1e5, 2e5, 5e5, 1e6, 4e6])
#: a zero fairness threshold keeps every report with two rates unfair
CONFIG = DikeConfig(fairness_threshold=0.0)


def dict_views(report: ObserverReport) -> SimpleNamespace:
    """The report's per-thread dicts, as its views built them."""
    rows = report.tids.tolist()
    return SimpleNamespace(
        access_rate=dict(zip(rows, report.rate_by_tid[report.tids].tolist()))
    )


def columns(placement: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array(list(placement), dtype=np.int64),
        np.array(list(placement.values()), dtype=np.int64),
    )


class Collector:
    def __init__(self) -> None:
        self.events = []

    def accept(self, event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


def traced_bus() -> tuple[EventBus, Collector]:
    bus = EventBus()
    collector = bus.attach(Collector())
    bus.at(4, 2.0)
    return bus, collector


# ---------------------------------------------------------------- references


def reference_partition(n_clusters: int, report, placement: dict) -> list[list[int]]:
    rates = dict_views(report).access_rate
    tids = [t for t in placement if t in rates]
    tids.sort(key=lambda t: (rates[t], t))
    n = len(tids)
    if n < 2:
        return []
    k = max(1, min(n_clusters, n // 2))
    bounds = [round(i * n / k) for i in range(k + 1)]
    return [tids[bounds[i]:bounds[i + 1]] for i in range(k)]


def reference_cluster_select(n_clusters, report, placement, selector, config):
    """The clusters and the pairs lfoc selected."""
    if report.is_fair(config.fairness_threshold):
        return [], []
    clusters = reference_partition(n_clusters, report, placement)
    pairs: list[ThreadPair] = []
    for tids in clusters:
        if len(pairs) >= config.n_pairs:
            break
        sub = {t: placement[t] for t in tids}
        pairs.extend(selector.select(report, *columns(sub)))
    return clusters, pairs[: config.n_pairs]


class ReferenceBlacklister:
    def __init__(self, interference_threshold: float, blacklist_quanta: int) -> None:
        self.interference_threshold = interference_threshold
        self.blacklist_quanta = blacklist_quanta
        self.banned: dict[int, int] = {}

    def select(self, report, placement: dict, selector: Selector) -> list[ThreadPair]:
        for tid in list(self.banned):
            left = self.banned[tid] - 1
            if left <= 0:
                del self.banned[tid]
            else:
                self.banned[tid] = left
        access_rate = dict_views(report).access_rate
        rates = {t: access_rate[t] for t in placement if t in access_rate}
        if rates:
            mean = left_sum(rates.values()) / len(rates)
            if mean > 0.0:
                cut = self.interference_threshold * mean
                for tid, rate in rates.items():
                    if rate > cut:
                        self.banned[tid] = self.blacklist_quanta
        allowed = {t: v for t, v in placement.items() if t not in self.banned}
        return selector.select(report, *columns(allowed))


def reference_rebalance(reb, members, report, accepted, decider, config, q, t):
    """The exchange the rebalancer made, and its event's fields."""
    if len(accepted) >= config.n_pairs:
        return [], None
    rates = dict_views(report).access_rate
    claimed = {x for p in accepted for x in (p.pair.t_l, p.pair.t_h)}

    def eligible(tid: int) -> bool:
        return tid in rates and tid not in claimed and not decider._in_cooldown(tid, q, t)

    signals = [reb._signal([rates[x] for x in tids if x in rates]) for tids in members]
    live = [i for i, s in enumerate(signals) if s is not None and members[i]]
    if len(live) < 2:
        return [], None
    hi = max(live, key=lambda i: (signals[i], -i))
    lo = min(live, key=lambda i: (signals[i], i))
    if hi == lo:
        return [], None
    scale = left_sum(abs(signals[i]) for i in live) / len(live)
    if signals[hi] - signals[lo] <= reb.threshold * max(scale, 1e-12):
        return [], None
    donors = [x for x in members[hi] if eligible(x)]
    recipients = [x for x in members[lo] if eligible(x)]
    if not donors or not recipients:
        return [], None
    t_h = max(donors, key=lambda x: (rates[x], -x))
    t_l = min(recipients, key=lambda x: (rates[x], x))
    pred = PairPrediction(
        ThreadPair(t_l=t_l, t_h=t_h), 0.0, 0.0,
        rates[t_l], rates[t_h], rates[t_l], rates[t_h],
    )
    decider._last_swap[t_l] = (q, t)
    decider._last_swap[t_h] = (q, t)
    return [pred], (hi, lo, (t_h,), (t_l,), float(signals[hi]), float(signals[lo]))


# ---------------------------------------------------------------- strategies


@st.composite
def quantum(draw, index: int) -> QuantumCounters:
    tids = draw(st.lists(st.integers(0, MAX_TID), unique=True, max_size=12))
    rows = [
        ThreadSample(
            t, draw(st.integers(0, N_VCORES - 1)), 1e8,
            draw(st.sampled_from([1e6, 1e7])), draw(MISSES), 0.5,
        )
        for t in tids
    ]
    if rows and draw(st.booleans()):
        # a barrier hit mid-quantum: an active row, then an idle zero row
        s = draw(st.sampled_from(rows))
        rows.append(ThreadSample(s.tid, s.vcore, 0.0, 0.0, 0.0, 0.5))
    return QuantumCounters(
        quantum_index=index, time_s=0.5 * (index + 1), quantum_length_s=0.5,
        samples=rows, core_bandwidth=np.linspace(1e6, 8e6, N_VCORES),
    )


@st.composite
def placement_for(draw, report: ObserverReport) -> dict[int, int]:
    """Some sampled tids and some never sampled (arrivals), ascending."""
    sampled = sorted(set(report.tids.tolist()))
    placed = draw(st.lists(st.sampled_from(sampled), unique=True)) if sampled else []
    placed += draw(st.lists(st.integers(MAX_TID + 1, MAX_TID + 5), unique=True, max_size=3))
    return {t: draw(st.integers(0, N_VCORES - 1)) for t in sorted(placed)}


@st.composite
def streams(draw):
    """Observer-built reports of consecutive quanta, each with a placement."""
    groups = draw(
        st.one_of(st.none(), st.dictionaries(st.integers(0, MAX_TID), st.integers(0, 3)))
    )
    observer = Observer(CONFIG, N_VCORES, groups)
    out = []
    for q in range(draw(st.integers(1, 6))):
        report = observer.update(draw(quantum(q)))
        out.append((report, draw(placement_for(report))))
    return out


# --------------------------------------------------------------------- tests


class TestCacheClusterer:
    @settings(max_examples=150, deadline=None)
    @given(streams(), st.integers(1, 5), st.sampled_from([2, 4, 8]))
    def test_clusters_pairs_and_events_match(self, stream, n_clusters, swap_size):
        config = DikeConfig(fairness_threshold=0.0, swap_size=swap_size)
        selector = Selector(config)
        for report, placement in stream:
            clusterer = CacheClusterer(n_clusters)
            clusterer.bus, collector = traced_bus()
            placed = Placement.of(placement)
            want_clusters, want_pairs = reference_cluster_select(
                n_clusters, report, placement, selector, config
            )
            got = [placed.tids[rows].tolist() for rows in clusterer.partition(report, placed)]
            assert got == reference_partition(n_clusters, report, placement)
            assert clusterer.select(report, placed, selector, config) == want_pairs
            formed = [e.tids for e in collector.events if isinstance(e, CacheClusterFormed)]
            assert formed == [tuple(c) for c in want_clusters]


class TestBlacklister:
    @settings(max_examples=150, deadline=None)
    @given(
        streams(),
        st.sampled_from([0.5, 1.0, 1.5, 3.0]),
        st.integers(1, 4),
    )
    def test_bans_and_pairs_match_quantum_by_quantum(self, stream, threshold, quanta):
        selector = Selector(CONFIG)
        blacklister = Blacklister(threshold, quanta)
        blacklister.bus, collector = traced_bus()
        reference = ReferenceBlacklister(threshold, quanta)
        for report, placement in stream:
            got = blacklister.select(report, Placement.of(placement), selector)
            assert got == reference.select(report, placement, selector)
            assert blacklister._banned == reference.banned
            assert list(blacklister._banned) == list(reference.banned)
        formed = [e.tids for e in collector.events if isinstance(e, CacheClusterFormed)]
        assert all(list(tids) == sorted(tids) for tids in formed)


class TestLMSShadowReport:
    @settings(max_examples=100, deadline=None)
    @given(streams(), st.integers(1, 3), st.sampled_from([0.3, 1.0]))
    def test_predicted_rates_match_the_dict_flow(self, stream, taps, mu):
        lms, reference = LMSRatePredictor(taps, mu), LMSRatePredictor(taps, mu)
        for report, placement in stream:
            # the columns, as LMSPredictorStage feeds them
            measured = report.present_by_tid.nonzero()[0]
            lms.update(measured.tolist(), report.rate_by_tid[measured].tolist())
            lms.prune(Placement.of(placement).tids)
            shadow = lms.predicted_rates(report)
            # the dicts, as the stage fed them before
            rates = dict_views(report).access_rate
            reference.update(list(rates), list(rates.values()))
            for tid in list(reference._history):
                if tid not in placement:
                    del reference._history[tid]
                    reference._weights.pop(tid, None)
            predicted = {t: reference.predict(t, rate) for t, rate in rates.items()}
            assert lms._history == reference._history
            for t in range(-1, MAX_TID + 7):
                assert repr(shadow.rate_of(t)) == repr(predicted.get(t, 0.0))
            for v in range(-1, N_VCORES + 1):
                assert repr(shadow.core_bw_of(v)) == repr(report.core_bw_of(v))


@st.composite
def rebalances(draw):
    """One due rebalance: clusters (some empty) over a placement, claimed
    pairs and threads in cooldown."""
    report, placement = draw(streams())[-1]
    tids = list(placement)
    k = draw(st.integers(1, 4))
    cluster_of = {t: draw(st.integers(0, k - 1)) for t in tids}
    members = [[t for t in tids if cluster_of[t] == c] for c in range(k)]
    free = draw(st.permutations(tids))
    accepted = [
        PairPrediction(ThreadPair(a, b), 0.0, 0.0, 0.0, 0.0)
        for a, b in zip(free[0::2], free[1::2])
        if draw(st.integers(0, 3)) == 0
    ]
    decider = Decider(DikeConfig(cooldown_quanta=2, cooldown_s=0.0))
    for t in tids:
        if draw(st.integers(0, 3)) == 0:
            decider._last_swap[t] = (draw(st.integers(0, 10)), 0.0)
    return report, members, accepted, decider


class TestRebalancer:
    @settings(max_examples=200, deadline=None)
    @given(
        rebalances(),
        st.sampled_from(CLUSTER_SIGNALS),
        st.sampled_from([0.0, 0.2, 1.0]),
        st.sampled_from([2, 4, 8]),
    )
    def test_signals_and_picks_match(self, case, signal, threshold, swap_size):
        report, members, accepted, decider = case
        config = DikeConfig(swap_size=swap_size)
        reb = InterClusterRebalancer(period=1, threshold=threshold, signal=signal)
        reb.bus, collector = traced_bus()
        ref_decider = copy.deepcopy(decider)
        want, event = reference_rebalance(
            reb, members, report, accepted, ref_decider, config, 10, 5.0
        )
        placement = Placement.of({t: 0 for m in members for t in m})
        rows = [placement.tids.searchsorted(m) for m in members]
        got = reb.rebalance(rows, placement, report, accepted, decider, config, 10, 5.0)
        assert [repr(p) for p in got] == [repr(p) for p in want]
        assert decider._last_swap == ref_decider._last_swap
        executed = [e for e in collector.events if isinstance(e, RebalanceExecuted)]
        assert reb.n_rebalances == len(executed) == len(want)
        if executed:
            e = executed[0]
            fields = (e.cluster_a, e.cluster_b, e.tids_a, e.tids_b, e.signal_a, e.signal_b)
            assert repr(fields) == repr(event)

    def test_rate_tie_breaks_on_tid(self):
        # -0.0 ties 0.0: the coolest recipient is the lower tid
        report = ObserverReport(
            access_rate={1: 9e6, 2: 9e6, 5: 0.0, 3: -0.0},
            miss_rate={}, classification={}, core_bw={},
            high_bw_cores=frozenset(), fairness=1.0,
        )
        reb = InterClusterRebalancer(period=1, threshold=0.0, signal="rate")
        placement = Placement.of({1: 0, 2: 0, 3: 1, 5: 1})
        (pred,) = reb.rebalance(
            [np.array([0, 1]), np.array([], dtype=np.int64), np.array([2, 3])],
            placement, report, [], Decider(DikeConfig()), DikeConfig(), 1, 0.5,
        )
        assert (pred.pair.t_h, pred.pair.t_l) == (1, 3)
