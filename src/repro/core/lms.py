"""LMS-style access-rate prediction as a Dike stage substitution.

The paper's Predictor assumes *persistence of demand*: a thread that
does not move keeps its measured access rate (Eqn. 1's ``AccessRate``
term).  Policy ``dike-lms`` replaces that assumption with a per-thread
**normalized least-mean-squares (NLMS) adaptive filter** over the recent
rate history — the LMS-AR idea (PAPERS.md): each quantum the filter
predicts the thread's next rate from its last ``taps`` measurements and
corrects its weights against the realised value,

.. math::

    \\hat{y} = w \\cdot x, \\qquad
    w \\leftarrow w + \\mu \\, (y - \\hat{y}) \\,
        \\frac{x}{x \\cdot x + \\varepsilon},

so phase changes (a benchmark entering a streaming region) feed into the
profit model one quantum sooner than persistence can.

This is a **stage substitution, not a model fork**: the LMS stage swaps
the *rate estimates* fed into the unchanged closed-loop Predictor
(Eqns 1-3) by handing it an `ObserverReport` whose ``rate_by_tid``
column carries the one-step-ahead predictions.  Everything downstream — profit
arithmetic, ``ProfitEvaluated`` events, the Decider's vetoes, the
prediction-error bookkeeping — is the paper's machinery verbatim, so the
full five-rule invariant contract (`repro.obs.invariants.RULES`) holds.

Per-run mutable state (the filters) lives on the scheduler subclass,
never on the stage object: stages are stateless-by-convention shared
singletons (see `repro.schedulers.pipeline`).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DikeConfig
from repro.core.dike import DIKE_STAGES, DikeScheduler, PredictorStage
from repro.core.observer import ObserverReport
from repro.schedulers.base import SchedulingContext
from repro.schedulers.pipeline import Stage, StageState
from repro.util.validation import require

__all__ = [
    "LMSRatePredictor",
    "LMSPredictorStage",
    "LMS_STAGES",
    "LMSDikeScheduler",
]

#: Regulariser of the NLMS normalisation term — keeps the update finite
#: for an all-zero history (an idle thread).
_EPS = 1e-12


class LMSRatePredictor:
    """Per-thread NLMS filters over recent access-rate history.

    ``update`` first *corrects* each filter against the newly measured
    rate (the quantum's ground truth for last quantum's prediction),
    then appends the measurement to the history; ``predict`` applies the
    corrected weights to the latest window.  A thread without a full
    history window falls back to persistence — exactly the baseline
    model — so cold starts behave like stock Dike.
    """

    def __init__(self, taps: int = 4, mu: float = 0.5) -> None:
        require(taps >= 1, "taps must be >= 1")
        require(0.0 < mu <= 2.0, "mu must be in (0, 2] (NLMS stability)")
        self.taps = taps
        self.mu = mu
        #: tid -> last ``taps`` measured rates, oldest first
        self._history: dict[int, list[float]] = {}
        #: tid -> filter weights, aligned with the history window
        self._weights: dict[int, np.ndarray] = {}

    def update(self, tids: list[int], rates: list[float]) -> None:
        """Fold this quantum's measurements ``rates[i]`` of ``tids[i]``
        (distinct tids) into every thread's filter."""
        for tid, rate in zip(tids, rates):
            hist = self._history.setdefault(tid, [])
            if len(hist) == self.taps:
                x = np.asarray(hist)
                w = self._weights.setdefault(tid, np.zeros(self.taps))
                error = rate - float(w @ x)
                w += self.mu * error * x / (float(x @ x) + _EPS)
            hist.append(float(rate))
            if len(hist) > self.taps:
                del hist[0]

    def prune(self, live: np.ndarray) -> None:
        """Forget threads not among the ``live`` tids (finished jobs)."""
        known = np.fromiter(self._history, np.int64, len(self._history))
        for tid in known[~np.isin(known, live)].tolist():
            del self._history[tid]
            self._weights.pop(tid, None)

    def predict(self, tid: int, fallback: float) -> float:
        """One-step-ahead rate for ``tid``; persistence until warmed up."""
        hist = self._history.get(tid)
        if hist is None or len(hist) < self.taps:
            return fallback
        w = self._weights.get(tid)
        if w is None:
            return fallback
        predicted = float(w @ np.asarray(hist))
        return max(predicted, 0.0)

    def predicted_rates(self, report: ObserverReport) -> ObserverReport:
        """``report`` with the rates of warmed-up threads replaced by
        their filter predictions; the other columns are shared."""
        rates = report.rate_by_tid.copy()
        for tid in report.present_by_tid.nonzero()[0].tolist():
            rates[tid] = self.predict(tid, rates.item(tid))
        return ObserverReport.of_columns(**{**vars(report), "rate_by_tid": rates})


class LMSPredictorStage(Stage):
    """The Predictor stage fed LMS-predicted rates instead of measured.

    Updates the filters with the quantum's measurements, then runs the
    unchanged Eqns 1-3 Predictor on a shadow report carrying each
    thread's one-step-ahead rate — profits, events and predicted
    post-swap rates all follow from the filtered estimates.
    """

    name = "predictor"

    def run(self, pipeline: "LMSDikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            lms, report = pipeline.lms, state.report
            measured = report.present_by_tid.nonzero()[0]
            lms.update(measured.tolist(), report.rate_by_tid[measured].tolist())
            lms.prune(state.placement.tids)
            state.predictions = pipeline.predictor.predict(
                state.pairs, lms.predicted_rates(report), state.placement
            )


#: Dike's pipeline with the Predictor stage replaced by the LMS variant.
LMS_STAGES: tuple[Stage, ...] = tuple(
    LMSPredictorStage() if isinstance(s, PredictorStage) else s
    for s in DIKE_STAGES
)


class LMSDikeScheduler(DikeScheduler):
    """Dike with NLMS access-rate prediction (policy ``dike-lms``)."""

    def __init__(
        self,
        config: DikeConfig | None = None,
        name: str = "dike-lms",
        lms_taps: int = 4,
        lms_mu: float = 0.5,
    ) -> None:
        super().__init__(config, name=name, stages=LMS_STAGES)
        require(lms_taps >= 1, "lms_taps must be >= 1")
        require(0.0 < lms_mu <= 2.0, "lms_mu must be in (0, 2]")
        self.lms_taps = lms_taps
        self.lms_mu = lms_mu

    def prepare(self, context: SchedulingContext) -> None:
        super().prepare(context)
        self.lms = LMSRatePredictor(self.lms_taps, self.lms_mu)

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["lms_taps"] = self.lms_taps
        info["lms_mu"] = self.lms_mu
        return info
