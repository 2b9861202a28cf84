"""Tests for Dike's Predictor (Eqns 1-3)."""

from __future__ import annotations

import pytest

from repro.core.config import DikeConfig
from repro.core.predictor import PairPrediction, Predictor
from repro.core.selector import ThreadPair


def report_for(rates, classes, core_bw, high, groups=None):
    from repro.core.observer import ObserverReport

    return ObserverReport(
        access_rate=dict(rates),
        miss_rate={t: (0.4 if c == "M" else 0.05) for t, c in classes.items()},
        classification=dict(classes),
        core_bw=dict(core_bw),
        high_bw_cores=frozenset(high),
        fairness=1.0,
        group_of=groups,
        demand_estimate=dict(rates),
    )


class TestOverhead:
    def test_eqn2(self):
        cfg = DikeConfig(swap_overhead_belief_s=0.005, quanta_length_s=0.5)
        predictor = Predictor(cfg)
        # Overhead = swapOH / quantaLength * AccessRate = 1% of rate
        assert predictor.overhead(1e6) == pytest.approx(1e4)

    def test_scales_with_quantum(self):
        short = Predictor(DikeConfig(quanta_length_s=0.1))
        long = Predictor(DikeConfig(quanta_length_s=1.0))
        assert short.overhead(1e6) > long.overhead(1e6)


class TestProfit:
    def test_eqn1_profit(self):
        cfg = DikeConfig(swap_overhead_belief_s=0.005, quanta_length_s=0.5)
        predictor = Predictor(cfg)
        rates = {0: 1e5, 1: 2e6}
        report = report_for(
            rates, {0: "C", 1: "M"},
            core_bw={10: 5e5, 11: 3e6}, high={11},
        )
        placement = {0: 11, 1: 10}  # C thread on high core, M on low
        pairs = [ThreadPair(t_l=0, t_h=1)]
        (pred,) = predictor.predict(pairs, report, placement)
        # profit_l = CoreBW(core of t_h = 10) - rate_l - overhead_l
        assert pred.profit_l == pytest.approx(5e5 - 1e5 - 0.01 * 1e5)
        # profit_h = CoreBW(core of t_l = 11) - rate_h - overhead_h
        assert pred.profit_h == pytest.approx(3e6 - 2e6 - 0.01 * 2e6)
        assert pred.total_profit == pytest.approx(pred.profit_l + pred.profit_h)

    def test_negative_profit_possible(self):
        predictor = Predictor(DikeConfig())
        report = report_for(
            {0: 1e6, 1: 2e6}, {0: "M", 1: "M"},
            core_bw={0: 1e5, 1: 1e5}, high=set(),
        )
        (pred,) = predictor.predict(
            [ThreadPair(0, 1)], report, {0: 0, 1: 1}
        )
        assert pred.total_profit < 0

    def test_unprobed_corebw_degenerates_to_overhead_loss(self):
        predictor = Predictor(DikeConfig())
        report = report_for(
            {0: 1e6, 1: 2e6}, {0: "M", 1: "M"},
            core_bw={0: float("nan"), 1: float("nan")}, high=set(),
        )
        (pred,) = predictor.predict([ThreadPair(0, 1)], report, {0: 0, 1: 1})
        # predicted no change minus overheads: strictly negative
        assert pred.total_profit < 0
        assert pred.total_profit == pytest.approx(
            -predictor.overhead(1e6) - predictor.overhead(2e6)
        )

    def test_predicted_rates_non_negative(self):
        predictor = Predictor(DikeConfig())
        report = report_for(
            {0: 5e6, 1: 5e6}, {0: "M", 1: "M"},
            core_bw={0: 1e3, 1: 1e3}, high=set(),
        )
        (pred,) = predictor.predict([ThreadPair(0, 1)], report, {0: 0, 1: 1})
        assert pred.predicted_rate_l >= 0
        assert pred.predicted_rate_h >= 0

    def test_order_preserved(self):
        predictor = Predictor(DikeConfig())
        report = report_for(
            {0: 1e5, 1: 2e6, 2: 1e5, 3: 2e6},
            {0: "C", 1: "M", 2: "C", 3: "M"},
            core_bw={i: 1e6 for i in range(4)}, high={1, 3},
        )
        pairs = [ThreadPair(0, 1), ThreadPair(2, 3)]
        preds = predictor.predict(pairs, report, {i: i for i in range(4)})
        assert [p.pair for p in preds] == pairs


class TestFairnessBenefit:
    def test_spread_shrinks(self):
        pred = PairPrediction(
            pair=ThreadPair(0, 1),
            profit_l=0.0, profit_h=0.0,
            predicted_rate_l=1.5e6, predicted_rate_h=1.6e6,
            current_rate_l=1e5, current_rate_h=3e6,
        )
        assert pred.fairness_benefit

    def test_spread_grows(self):
        pred = PairPrediction(
            pair=ThreadPair(0, 1),
            profit_l=0.0, profit_h=0.0,
            predicted_rate_l=0.0, predicted_rate_h=5e6,
            current_rate_l=1e6, current_rate_h=2e6,
        )
        assert not pred.fairness_benefit
