"""Dike's closed-loop Predictor (§III-C, Eqns 1-3).

For a candidate pair ⟨t_l, t_h⟩ the predictor estimates each member's
memory access rate in the next quantum *if the swap happens*:

.. math::

    profit_{t_l} = CoreBW_{t_h} - AccessRate_{t_l} - Overhead_{t_l}

where ``CoreBW_{t_h}`` is the moving-mean bandwidth of the *destination*
core (t_h's current core — "we assume that if a thread migrates to a new
core, it consumes the new core's entire memory bandwidth"),
``AccessRate_{t_l}`` is the rate the thread is expected to keep if it does
not move, and

.. math::

    Overhead_{t_l} = \\frac{swapOH}{quantaLength} \\cdot AccessRate_{t_l}

discounts the context-switch time.  ``swapOH`` is a *belief*, not a
measurement — the closed loop treats any error in it as model noise that
the next quantum's feedback corrects.  The pair's ``totalProfit`` is the
sum of both members' profits (Eqn. 3); a negative member profit legally
encodes "this thread will slow down".

The predictor also produces the **predicted post-swap access rate** for
each member (``CoreBW_dest - Overhead``); the scheduler pairs those with
the next quantum's measurements to build the paper's prediction-error
figures (7 and 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.config import DikeConfig
from repro.core.observer import ObserverReport
from repro.core.selector import ThreadPair
from repro.obs.events import NULL_BUS, ProfitEvaluated

__all__ = ["PairPrediction", "Predictor"]


@dataclass(frozen=True)
class PairPrediction:
    """Profit estimate for one candidate pair."""

    pair: ThreadPair
    profit_l: float
    profit_h: float
    predicted_rate_l: float  # t_l's expected rate on t_h's core
    predicted_rate_h: float  # t_h's expected rate on t_l's core
    current_rate_l: float = 0.0
    current_rate_h: float = 0.0

    @property
    def total_profit(self) -> float:
        """Eqn. 3: the swap's expected change in aggregate access rate."""
        return self.profit_l + self.profit_h

    @property
    def fairness_benefit(self) -> bool:
        """True when the swap is predicted to shrink the pair's rate spread
        (the fairness half of "ensure each swap benefits fairness or
        performance", §III-D)."""
        spread_before = abs(self.current_rate_h - self.current_rate_l)
        spread_after = abs(self.predicted_rate_h - self.predicted_rate_l)
        return spread_after < spread_before


class Predictor:
    """Applies Eqns 1-3 to every candidate pair."""

    def __init__(self, config: DikeConfig) -> None:
        self.config = config
        self.bus = NULL_BUS

    def overhead(self, access_rate: float) -> float:
        """Eqn. 2: context-switch discount for one thread."""
        return (
            self.config.swap_overhead_belief_s
            / self.config.quanta_length_s
            * access_rate
        )

    def predict(
        self,
        pairs: list[ThreadPair],
        report: ObserverReport,
        placement: Mapping[int, int],
    ) -> list[PairPrediction]:
        """Estimate profits for each pair (order preserved)."""
        out: list[PairPrediction] = []
        for pair in pairs:
            rate_l = report.rate_of(pair.t_l)
            rate_h = report.rate_of(pair.t_h)
            bw_of_core_h = report.core_bw_of(placement[pair.t_h])
            bw_of_core_l = report.core_bw_of(placement[pair.t_l])
            # An unprobed machine (nan CoreBW) predicts no change: the
            # closed loop has no evidence yet, so profit degenerates to the
            # overhead penalty and the decider will skip the pair.
            if not math.isfinite(bw_of_core_h):
                bw_of_core_h = rate_l
            if not math.isfinite(bw_of_core_l):
                bw_of_core_l = rate_h
            oh_l = self.overhead(rate_l)
            oh_h = self.overhead(rate_h)
            prediction = PairPrediction(
                pair=pair,
                profit_l=bw_of_core_h - rate_l - oh_l,
                profit_h=bw_of_core_l - rate_h - oh_h,
                predicted_rate_l=max(bw_of_core_h - oh_l, 0.0),
                predicted_rate_h=max(bw_of_core_l - oh_h, 0.0),
                current_rate_l=rate_l,
                current_rate_h=rate_h,
            )
            out.append(prediction)
            if self.bus.enabled:
                self.bus.emit(
                    ProfitEvaluated(
                        *self.bus.now,
                        t_l=pair.t_l,
                        t_h=pair.t_h,
                        rate_l=rate_l,
                        rate_h=rate_h,
                        bw_dest_l=bw_of_core_h,
                        bw_dest_h=bw_of_core_l,
                        overhead_l=oh_l,
                        overhead_h=oh_h,
                        profit_l=prediction.profit_l,
                        profit_h=prediction.profit_h,
                        total_profit=prediction.total_profit,
                    )
                )
        return out
