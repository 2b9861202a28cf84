"""The column Selector against the dict-based one it replaced, pair for pair.

``Selector._select`` sorts the selectable threads once with
``np.lexsort`` and turns Algorithm 1's pointer scans into masks over
that order.  ``reference_select`` below is the dict-based selection it
replaced, kept here — as ``ReferenceObserver`` is — as the
specification the column path is held to; it reads the report's
columns back as dicts (``dict_views``).  Hypothesis draws reports
whose rates tie (tid breaks the tie), whose threads are all one class,
whose process groups are unfair (the rotation fallback), with placed
threads the report never measured and vcores off the machine; it also
selects on a cluster's sub-placement, as ``dike-hier`` does.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DikeConfig
from repro.core.observer import NO_GROUP, Observer, ObserverReport
from repro.core.selector import Selector, ThreadPair
from repro.sim.counters import QuantumCounters, ThreadSample
from repro.util.stats import coefficient_of_variation


def left_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def dict_views(report: ObserverReport) -> SimpleNamespace:
    """The report's columns as per-thread dicts (a tid keyed at its
    first row), as the Observer reported them before its columns."""
    rows = report.tids.tolist()
    groups = report.group_by_tid[:-1].tolist()
    return SimpleNamespace(
        access_rate=dict(zip(rows, report.rate_by_tid[report.tids].tolist())),
        classification=dict(
            zip(rows, np.where(report.is_m_by_tid[report.tids], "M", "C").tolist())
        ),
        high_bw_cores=frozenset(report.high_by_vcore.nonzero()[0].tolist()),
        group_of={t: g for t, g in enumerate(groups) if g != NO_GROUP},
    )


def columns(placement: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array(list(placement), dtype=np.int64),
        np.array(list(placement.values()), dtype=np.int64),
    )


def reference_select(
    config: DikeConfig, report: ObserverReport, placement: dict[int, int]
) -> list[ThreadPair]:
    """Algorithm 1 over the report's dicts, one thread at a time."""
    if report.is_fair(config.fairness_threshold):
        return []
    views = dict_views(report)
    tids = [t for t in placement if t in views.access_rate]
    if len(tids) < 2:
        return []
    tids.sort(key=lambda t: (views.access_rate[t], t))
    n = len(tids)
    n_pairs = config.n_pairs
    classes = {t: views.classification.get(t, "C") for t in tids}
    if len(set(classes.values())) == 1:
        return [
            ThreadPair(t_l=tids[k], t_h=tids[n - 1 - k])
            for k in range(min(n_pairs, n // 2))
        ]
    on_high = {t: placement[t] in views.high_bw_cores for t in tids}
    k_high = sum(1 for t in tids if on_high[t])
    top_rank = {t: i >= n - k_high for i, t in enumerate(tids)}

    def violates(tid: int) -> bool:
        if top_rank[tid] and not on_high[tid]:
            return True
        return not top_rank[tid] and on_high[tid] and classes[tid] == "C"

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
    if config.rotation_fallback and len(pairs) < n_pairs:
        for group_tids in reference_unfair_groups(config, views, tids):
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


def reference_unfair_groups(config, views, sorted_tids) -> list[list[int]]:
    rates = views.access_rate
    by_group: dict[int, list[int]] = {}
    for t in sorted_tids:
        g = views.group_of.get(t)
        if g is not None:
            by_group.setdefault(g, []).append(t)
    total = left_sum(rates[t] for t in sorted_tids) or 1.0
    scored = []
    for tids in by_group.values():
        if len(tids) < 2:
            continue
        weight = left_sum(rates[t] for t in tids) / total
        if weight < 0.05:
            continue
        cv = coefficient_of_variation([rates[t] for t in tids])
        if cv > config.fairness_threshold:
            scored.append((weight * cv, tids))
    scored.sort(key=lambda x: -x[0])
    return [tids for _, tids in scored]


# ---------------------------------------------------------------- strategies

N_VCORES = 10
#: few distinct values, so rates tie often (-0.0 ties 0.0)
RATES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 5e5, 1e6, 2e6])


@st.composite
def configs(draw):
    return DikeConfig(
        swap_size=draw(st.sampled_from([2, 4, 8, 16])),
        fairness_threshold=draw(st.sampled_from([0.0, 0.1, 0.5])),
        rotation_fallback=draw(st.booleans()),
    )


@st.composite
def reports(draw):
    tids = draw(st.lists(st.integers(0, 24), min_size=0, max_size=20, unique=True))
    rates = {t: draw(st.one_of(RATES, st.floats(0.0, 1e7))) for t in tids}
    one_class = draw(st.sampled_from([None, "M", "C"]))
    classification = {
        t: one_class or draw(st.sampled_from("MC"))
        for t in tids
        if draw(st.integers(0, 9))  # some threads unclassified: "C"
    }
    groups = draw(
        st.one_of(
            st.none(),
            st.dictionaries(st.integers(0, 24), st.integers(-1, 3)),
        )
    )
    high = frozenset(draw(st.lists(st.integers(0, N_VCORES - 1), max_size=N_VCORES)))
    return ObserverReport(
        access_rate=rates,
        miss_rate={t: 0.4 if c == "M" else 0.05 for t, c in classification.items()},
        classification=classification,
        core_bw={v: (2e6 if v in high else 5e5) for v in range(N_VCORES)},
        high_bw_cores=high,
        fairness=draw(st.sampled_from([1.0, 0.05, float("nan")])),
        group_of=groups,
        demand_estimate=dict(rates),
    )


@st.composite
def placements(draw, report):
    measured = report.tids.tolist()
    placed = draw(st.lists(st.sampled_from(measured), unique=True)) if measured else []
    # live threads the Observer never measured (arrivals), ids beyond its columns
    placed += draw(st.lists(st.integers(25, 40), max_size=3, unique=True))
    order = draw(st.permutations(placed))
    # -1 and N_VCORES are off the machine
    return {t: draw(st.integers(-1, N_VCORES)) for t in order}


@st.composite
def scenarios(draw):
    report = draw(reports())
    return draw(configs()), report, draw(placements(report))


class TestColumnSelectorEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(scenarios())
    def test_same_pairs_in_the_same_order(self, scenario):
        config, report, placement = scenario
        got = Selector(config).select(report, *columns(placement))
        assert got == reference_select(config, report, placement)
        assert all(type(p.t_l) is int and type(p.t_h) is int for p in got)

    @settings(max_examples=200, deadline=None)
    @given(scenarios(), st.data())
    def test_cluster_sub_placement(self, scenario, data):
        """``dike-hier`` selects over one cluster's threads, as columns."""
        config, report, placement = scenario
        members = (
            data.draw(st.lists(st.sampled_from(list(placement)), unique=True))
            if placement
            else []
        )
        sub = {t: placement[t] for t in members}
        got = Selector(config).select(report, *columns(sub))
        assert got == reference_select(config, report, sub)

    def test_rate_ties_break_on_tid(self):
        config = DikeConfig(swap_size=4)
        report = ObserverReport(
            access_rate={5: 1.0, 2: 1.0, 9: -0.0, 1: 0.0},
            miss_rate={},
            classification={5: "M", 2: "M", 9: "M", 1: "M"},
            core_bw={0: 1.0},
            high_bw_cores=frozenset(),
            fairness=1.0,
        )
        placement = {5: 0, 2: 0, 9: 0, 1: 0}
        assert Selector(config).select(report, *columns(placement)) == [
            ThreadPair(1, 5), ThreadPair(9, 2)
        ]
        assert reference_select(config, report, placement) == [
            ThreadPair(1, 5), ThreadPair(9, 2)
        ]


def observed_report(rows, groups, n_vcores=8) -> ObserverReport:
    counters = QuantumCounters(
        quantum_index=0, time_s=0.5, quantum_length_s=0.5,
        samples=[ThreadSample(*row) for row in rows],
        core_bandwidth=np.linspace(1e6, 8e6, n_vcores),
    )
    return Observer(DikeConfig(), n_vcores, groups).update(counters)


class TestOnObserverReports:
    """The same equivalence on reports the Observer builds."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 11),
                st.integers(0, 7),
                st.floats(1e6, 1e8),
                st.floats(1e3, 1e7),
                st.floats(0.0, 1e7),
            ),
            min_size=2,
            max_size=12,
            unique_by=lambda r: r[0],
        ),
        configs(),
        st.booleans(),
    )
    def test_same_pairs(self, rows, config, grouped):
        groups = {tid: tid % 3 for tid, *_ in rows} if grouped else None
        report = observed_report(
            [(tid, vcore, instr, acc, miss, 0.5) for tid, vcore, instr, acc, miss in rows],
            groups,
        )
        placement = {tid: vcore for tid, vcore, *_ in reversed(rows)}
        assert Selector(config).select(report, *columns(placement)) == reference_select(
            config, report, placement
        )
