"""Tests for Dike's Decider: cooldown and profit filtering."""

from __future__ import annotations

from repro.core.config import DikeConfig
from repro.core.decider import Decider
from repro.core.predictor import PairPrediction
from repro.core.selector import ThreadPair


def pred(t_l, t_h, profit=1e6, pred_l=None, pred_h=None, cur_l=1e6, cur_h=2e6):
    """A pair prediction with controllable profit and spread."""
    return PairPrediction(
        pair=ThreadPair(t_l, t_h),
        profit_l=profit / 2,
        profit_h=profit / 2,
        predicted_rate_l=pred_l if pred_l is not None else cur_h,
        predicted_rate_h=pred_h if pred_h is not None else cur_l,
        current_rate_l=cur_l,
        current_rate_h=cur_h,
    )


class TestProfitFilter:
    def test_positive_profit_accepted(self):
        d = Decider(DikeConfig())
        assert len(d.decide([pred(0, 1, profit=1.0)], 0, 0.0)) == 1

    def test_negative_profit_rejected_when_spread_grows(self):
        d = Decider(DikeConfig())
        p = pred(0, 1, profit=-1e6, pred_l=0.0, pred_h=9e6)
        assert d.decide([p], 0, 0.0) == []

    def test_small_negative_profit_with_fairness_benefit_accepted(self):
        d = Decider(DikeConfig())
        # profit slightly negative, spread shrinks: the fairness branch
        p = pred(0, 1, profit=-1e4, pred_l=1.5e6, pred_h=1.5e6)
        assert len(d.decide([p], 0, 0.0)) == 1

    def test_large_negative_profit_rejected_despite_fairness(self):
        d = Decider(DikeConfig())
        p = pred(0, 1, profit=-1e7, pred_l=1.5e6, pred_h=1.5e6)
        assert d.decide([p], 0, 0.0) == []

    def test_profit_filter_can_be_disabled(self):
        d = Decider(DikeConfig(require_positive_profit=False))
        p = pred(0, 1, profit=-1e9, pred_l=0.0, pred_h=9e9)
        assert len(d.decide([p], 0, 0.0)) == 1


class TestCooldown:
    def test_consecutive_quantum_blocked(self):
        d = Decider(DikeConfig(cooldown_quanta=1, cooldown_s=0.0))
        assert len(d.decide([pred(0, 1)], 5, 2.5)) == 1
        assert d.decide([pred(0, 2)], 6, 3.0) == []  # thread 0 cooling down
        assert len(d.decide([pred(0, 2)], 7, 3.5)) == 1

    def test_either_member_triggers_skip(self):
        d = Decider(DikeConfig(cooldown_quanta=1, cooldown_s=0.0))
        d.decide([pred(0, 1)], 0, 0.0)
        assert d.decide([pred(2, 1)], 1, 0.5) == []

    def test_time_floor_blocks_fast_quanta(self):
        d = Decider(DikeConfig(cooldown_quanta=1, cooldown_s=1.0))
        d.decide([pred(0, 1)], 0, 0.0)
        # 3 quanta later but only 0.3s elapsed: still cooling down
        assert d.decide([pred(0, 2)], 3, 0.3) == []
        assert len(d.decide([pred(0, 2)], 12, 1.2)) == 1

    def test_zero_cooldown_disables(self):
        d = Decider(DikeConfig(cooldown_quanta=0, cooldown_s=0.0))
        d.decide([pred(0, 1)], 0, 0.0)
        assert len(d.decide([pred(0, 1)], 1, 0.1)) == 1

    def test_forget_thread_clears_state(self):
        d = Decider(DikeConfig(cooldown_quanta=5, cooldown_s=10.0))
        d.decide([pred(0, 1)], 0, 0.0)
        d.forget_thread(0)
        d.forget_thread(1)
        assert len(d.decide([pred(0, 1)], 1, 0.5)) == 1

    def test_reset(self):
        d = Decider(DikeConfig())
        d.decide([pred(0, 1)], 0, 0.0)
        d.reset()
        assert len(d.decide([pred(0, 1)], 1, 0.1)) == 1


class TestClaiming:
    def test_thread_claimed_once_per_quantum(self):
        d = Decider(DikeConfig(cooldown_quanta=0, cooldown_s=0.0))
        accepted = d.decide([pred(0, 1), pred(1, 2)], 0, 0.0)
        assert len(accepted) == 1

    def test_order_preserved_first_wins(self):
        d = Decider(DikeConfig(cooldown_quanta=0, cooldown_s=0.0))
        accepted = d.decide([pred(3, 4), pred(4, 5), pred(6, 7)], 0, 0.0)
        assert [a.pair for a in accepted] == [ThreadPair(3, 4), ThreadPair(6, 7)]
