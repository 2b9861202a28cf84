"""Tests for Dike's Selector (Algorithm 1)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DikeConfig
from repro.core.observer import ObserverReport
from repro.core.selector import Selector
from repro.schedulers.base import Placement


def columns(placement: dict[int, int]):
    """A placement dict as the selector's ``tids``, ``vcores`` arrays."""
    placed = Placement.of(placement)
    return placed.tids, placed.vcores


def make_report(
    rates: dict[int, float],
    classes: dict[int, str],
    high_cores: set[int],
    fairness: float = 1.0,
    groups: dict[int, int] | None = None,
) -> ObserverReport:
    return ObserverReport(
        access_rate=dict(rates),
        miss_rate={t: (0.4 if c == "M" else 0.05) for t, c in classes.items()},
        classification=dict(classes),
        core_bw={c: (2e6 if c in high_cores else 5e5) for c in range(16)},
        high_bw_cores=frozenset(high_cores),
        fairness=fairness,
        group_of=groups,
        demand_estimate=dict(rates),
    )


class TestFairnessGate:
    def test_no_pairs_when_fair(self):
        selector = Selector(DikeConfig())
        report = make_report(
            {0: 1e6, 1: 2e6}, {0: "C", 1: "M"}, {1}, fairness=0.01
        )
        assert selector.select(report, *columns({0: 0, 1: 1})) == []

    def test_nan_fairness_treated_as_fair(self):
        selector = Selector(DikeConfig())
        report = make_report(
            {0: 1e6, 1: 2e6}, {0: "C", 1: "M"}, {1}, fairness=float("nan")
        )
        assert selector.select(report, *columns({0: 0, 1: 1})) == []


class TestSameTypeBranch:
    def test_all_memory_pairs_ends(self):
        selector = Selector(DikeConfig(swap_size=4))
        rates = {i: float(i + 1) * 1e6 for i in range(6)}
        classes = {i: "M" for i in range(6)}
        report = make_report(rates, classes, {0, 1, 2})
        pairs = selector.select(report, *columns({i: i for i in range(6)}))
        assert len(pairs) == 2
        assert (pairs[0].t_l, pairs[0].t_h) == (0, 5)
        assert (pairs[1].t_l, pairs[1].t_h) == (1, 4)

    def test_all_compute_pairs_ends(self):
        selector = Selector(DikeConfig(swap_size=2))
        rates = {i: float(i + 1) * 1e4 for i in range(4)}
        classes = {i: "C" for i in range(4)}
        report = make_report(rates, classes, set())
        pairs = selector.select(report, *columns({i: i for i in range(4)}))
        assert len(pairs) == 1
        assert (pairs[0].t_l, pairs[0].t_h) == (0, 3)


class TestViolatorPairing:
    def test_misplaced_pair_selected(self):
        """M thread on low-BW core + C thread on high-BW core -> one pair."""
        selector = Selector(DikeConfig(swap_size=2, rotation_fallback=False))
        rates = {0: 1e4, 1: 2e6, 2: 3e6, 3: 2e4}
        classes = {0: "C", 1: "M", 2: "M", 3: "C"}
        # cores 0,1 high; thread 0 (C) on high core 0 violates;
        # thread 2 (M, highest rate) on low core 2 violates.
        report = make_report(rates, classes, {0, 1})
        placement = {0: 0, 1: 1, 2: 2, 3: 3}
        pairs = selector.select(report, *columns(placement))
        assert len(pairs) == 1
        assert pairs[0].t_l == 0
        assert pairs[0].t_h == 2

    def test_converged_placement_yields_no_violator_pairs(self):
        """Top-rank threads on high cores, compute on low: nothing to fix."""
        selector = Selector(DikeConfig(swap_size=4, rotation_fallback=False))
        rates = {0: 1e4, 1: 2e4, 2: 2e6, 3: 3e6}
        classes = {0: "C", 1: "C", 2: "M", 3: "M"}
        report = make_report(rates, classes, {2, 3})
        placement = {0: 0, 1: 1, 2: 2, 3: 3}
        assert selector.select(report, *columns(placement)) == []

    def test_swap_size_limits_pairs(self):
        selector = Selector(DikeConfig(swap_size=2, rotation_fallback=False))
        rates = {i: (1e4 if i < 3 else 2e6 + i) for i in range(6)}
        classes = {i: ("C" if i < 3 else "M") for i in range(6)}
        # all three C threads sit on high cores, all three M on low cores
        report = make_report(rates, classes, {0, 1, 2})
        placement = {i: i for i in range(6)}
        pairs = selector.select(report, *columns(placement))
        assert len(pairs) == 1  # swap_size 2 -> one pair only

    def test_fewer_than_two_threads(self):
        selector = Selector(DikeConfig())
        report = make_report({0: 1e6}, {0: "M"}, set())
        assert selector.select(report, *columns({0: 0})) == []


class TestRotationFallback:
    def test_unfair_group_rotated_within(self):
        cfg = DikeConfig(swap_size=2)
        selector = Selector(cfg)
        # one group with strongly dispersed rates; placement rank-consistent
        rates = {0: 1e4, 1: 2e4, 2: 1e6, 3: 3e6}
        classes = {0: "C", 1: "C", 2: "M", 3: "M"}
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        report = make_report(rates, classes, {2, 3}, groups=groups)
        placement = {i: i for i in range(4)}
        pairs = selector.select(report, *columns(placement))
        assert len(pairs) == 1
        # group 1 carries the bandwidth and is dispersed: rotate 2 <-> 3
        assert {pairs[0].t_l, pairs[0].t_h} == {2, 3}

    def test_global_end_rotation_when_groups_balanced(self):
        cfg = DikeConfig(swap_size=2)
        selector = Selector(cfg)
        rates = {0: 1.0e6, 1: 1.05e6, 2: 2.0e6, 3: 2.1e6}
        classes = {i: "M" if i >= 2 else "C" for i in range(4)}
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        report = make_report(rates, classes, {2, 3}, groups=groups)
        placement = {i: i for i in range(4)}
        pairs = selector.select(report, *columns(placement))
        # groups internally tight: fall back to global extremes 0 <-> 3
        assert len(pairs) == 1
        assert (pairs[0].t_l, pairs[0].t_h) == (0, 3)

    def test_fallback_disabled(self):
        cfg = DikeConfig(swap_size=2, rotation_fallback=False)
        selector = Selector(cfg)
        rates = {0: 1e6, 1: 1.1e6, 2: 2e6, 3: 2.1e6}
        classes = {i: "M" if i >= 2 else "C" for i in range(4)}
        report = make_report(rates, classes, {2, 3})
        assert selector.select(report, *columns({i: i for i in range(4)})) == []


@st.composite
def selector_inputs(draw):
    n = draw(st.integers(2, 16))
    rates = {
        i: draw(st.floats(1e3, 1e7, allow_nan=False)) for i in range(n)
    }
    classes = {i: draw(st.sampled_from(["M", "C"])) for i in range(n)}
    high = {
        c for c in range(n) if draw(st.booleans())
    }
    groups = {i: i % 3 for i in range(n)}
    swap_size = draw(st.sampled_from([2, 4, 6, 8]))
    return rates, classes, high, groups, swap_size


class TestSelectorProperties:
    @given(selector_inputs())
    @settings(max_examples=120)
    def test_invariants(self, inputs):
        rates, classes, high, groups, swap_size = inputs
        selector = Selector(DikeConfig(swap_size=swap_size))
        report = make_report(rates, classes, high, fairness=1.0, groups=groups)
        placement = {i: i for i in rates}
        pairs = selector.select(report, *columns(placement))
        # never more pairs than swapSize/2
        assert len(pairs) <= swap_size // 2
        # pairs are disjoint
        tids = [t for p in pairs for t in (p.t_l, p.t_h)]
        assert len(tids) == len(set(tids))
        # every paired thread exists
        assert all(t in rates for t in tids)
        # t_l has no higher rate than t_h
        for p in pairs:
            assert rates[p.t_l] <= rates[p.t_h] + 1e-9
