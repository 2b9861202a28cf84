"""The Dike scheduler: Observer -> Selector -> Predictor -> Decider ->
Migrator, with the Optimizer adapting the key parameters (Figure 3).

``DikeScheduler`` is a :class:`~repro.schedulers.pipeline.StagePipeline`:
the five per-quantum components (plus the Optimizer) are a *declared
stage list* (:data:`DIKE_STAGES`), each stage a thin adapter between the
shared :class:`~repro.schedulers.pipeline.StageState` dataflow and one
component.  Ablation variants replace individual stages —
:data:`NO_PREDICTOR_STAGES` swaps the closed-loop Predictor for
persistence predictions, :data:`NO_DECIDER_STAGES` accepts every selected
pair — and the `repro.policies` registry exposes them as policies without
forking the scheduler.

Beyond the stages the scheduler keeps the **closed loop's books**: every
accepted swap registers a predicted post-swap access rate, and the next
quantum's measurement back-fills the ground truth — producing the
prediction-error records behind Figures 7/8.

Build schedulers through the policy registry
(``repro.policies.REGISTRY.build("dike-af")``), the single resolution
point the runner, CLI, campaign and benchmark layers share.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AdaptationGoal, DikeConfig
from repro.core.decider import Decider
from repro.core.migrator import Migrator
from repro.core.observer import Observer
from repro.core.optimizer import Optimizer
from repro.core.predictor import PairPrediction, Predictor
from repro.core.selector import Selector
from repro.schedulers.base import SchedulingContext
from repro.schedulers.pipeline import Stage, StagePipeline, StageState
from repro.sim.results import PredictionLog

__all__ = [
    "DikeScheduler",
    "DIKE_STAGES",
    "NO_PREDICTOR_STAGES",
    "NO_DECIDER_STAGES",
    "ObserverStage",
    "OptimizerStage",
    "SelectorStage",
    "PredictorStage",
    "DeciderStage",
    "MigratorStage",
    "PersistencePredictorStage",
    "AcceptAllStage",
]


# --------------------------------------------------------------- stages


class ObserverStage(Stage):
    """Digest the quantum's counters into an ``ObserverReport`` and
    back-fill the previous quantum's predictions with measurements."""

    name = "observer"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.report = pipeline.observer.update(state.counters)
        pipeline._backfill_predictions(state.counters, state.report)


class OptimizerStage(Stage):
    """Periodically re-tune ⟨swapSize, quantaLength⟩ toward the goal
    (§III-F) and garbage-collect cooldown state of finished threads."""

    name = "optimizer"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            new_cfg = pipeline.optimizer.maybe_update(state.report)
        if new_cfg is not pipeline.config:
            pipeline._set_config(new_cfg, state.counters.quantum_index)
        # Finished threads drop out of `placement`; forget their cooldowns.
        for tid in pipeline.decider._last_swap.keys() - state.placement.keys():
            pipeline.decider.forget_thread(tid)


class SelectorStage(Stage):
    """Form violator pairs via the placement rule (Algorithm 1)."""

    name = "selector"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            placement = state.placement
            state.pairs = pipeline.selector.select(
                state.report, placement.tids, placement.vcores
            )


class PredictorStage(Stage):
    """Estimate per-pair swap profits with the closed-loop model (Eqns 1-3)."""

    name = "predictor"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.predictions = pipeline.predictor.predict(
                state.pairs, state.report, state.placement
            )


class DeciderStage(Stage):
    """Filter predictions by cooldown and profit (§III-D)."""

    name = "decider"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.accepted = pipeline.decider.decide(
                state.predictions,
                state.counters.quantum_index,
                state.counters.time_s,
            )


class MigratorStage(Stage):
    """Turn accepted pairs into engine ``Swap`` actions (§III-E)."""

    name = "migrator"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.actions = pipeline.migrator.build_actions(state.accepted)


class PersistencePredictorStage(Stage):
    """Ablation stand-in for the Predictor: persistence, no model.

    Every selected pair is predicted to keep its current access rates
    wherever it lands (zero profit either way), so the Decider degenerates
    to its cooldown rule — isolating how much of Dike's quality the
    closed-loop profit model (Eqns 1-3) contributes.  Emits no
    ``ProfitEvaluated`` events: there is no model to audit.
    """

    name = "predictor"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            rate_of = state.report.rate_of
            state.predictions = [
                PairPrediction(
                    pair=pair,
                    profit_l=0.0,
                    profit_h=0.0,
                    predicted_rate_l=rate_of(pair.t_l),
                    predicted_rate_h=rate_of(pair.t_h),
                    current_rate_l=rate_of(pair.t_l),
                    current_rate_h=rate_of(pair.t_h),
                )
                for pair in state.pairs
            ]


class AcceptAllStage(Stage):
    """Ablation stand-in for the Decider: every predicted pair is swapped.

    Selector pairs are disjoint by construction, so accepting all of them
    is safe; what disappears is the cooldown rule and the profit veto —
    isolating how much churn the Decider's judgement avoids.  Without a
    decider no cooldown contract holds (see the policy's invariant
    contract in `repro.policies`).
    """

    name = "decider"

    def run(self, pipeline: "DikeScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.accepted = list(state.predictions)


#: The paper's pipeline (Figure 3), as a declared stage list.
DIKE_STAGES: tuple[Stage, ...] = (
    ObserverStage(),
    OptimizerStage(),
    SelectorStage(),
    PredictorStage(),
    DeciderStage(),
    MigratorStage(),
)

#: Fig6-style ablation: the closed-loop Predictor replaced by persistence.
NO_PREDICTOR_STAGES: tuple[Stage, ...] = tuple(
    PersistencePredictorStage() if isinstance(s, PredictorStage) else s
    for s in DIKE_STAGES
)

#: Fig6-style ablation: the Decider replaced by accept-everything.
NO_DECIDER_STAGES: tuple[Stage, ...] = tuple(
    AcceptAllStage() if isinstance(s, DeciderStage) else s for s in DIKE_STAGES
)


# ------------------------------------------------------------ scheduler


class DikeScheduler(StagePipeline):
    """Predictive, adaptive contention-aware scheduler (the paper's system)."""

    metric_prefix = "dike"

    def __init__(
        self,
        config: DikeConfig | None = None,
        name: str | None = None,
        stages: tuple[Stage, ...] | None = None,
    ) -> None:
        super().__init__(stages if stages is not None else DIKE_STAGES)
        self.config = config or DikeConfig()
        if name is not None:
            self.name = name
        elif self.config.goal is AdaptationGoal.FAIRNESS:
            self.name = "dike-af"
        elif self.config.goal is AdaptationGoal.PERFORMANCE:
            self.name = "dike-ap"
        else:
            self.name = "dike"
        self._initial_config = self.config

    # ----------------------------------------------------------- lifecycle

    def prepare(self, context: SchedulingContext) -> None:
        super().prepare(context)
        self.config = self._initial_config
        groups = {t.tid: t.group for t in context.threads}
        self.observer = Observer(self.config, context.topology.n_vcores, groups)
        self.selector = Selector(self.config)
        self.predictor = Predictor(self.config)
        self.decider = Decider(self.config)
        self.migrator = Migrator()
        self.optimizer = Optimizer(self.config)
        # Observability: every component shares the run's event bus.
        for component in (
            self.observer, self.selector, self.predictor,
            self.decider, self.migrator, self.optimizer,
        ):
            component.bus = context.bus
        #: predictions awaiting their measurement, as columns (tid, quantum
        #: index, time, predicted rate) in registration order; a tid
        #: registered again keeps its place, as in a dict
        self._pending: tuple[np.ndarray, ...] = _NO_PENDING
        #: the prediction log's columns, one array chunk per back-fill
        self._log: tuple[list, ...] = ([], [], [], [], [])
        #: (quantum_index, swap_size, quanta_length_s) adaptation trajectory
        self._config_history: list[tuple[int, int, float]] = [
            (0, self.config.swap_size, self.config.quanta_length_s)
        ]

    def quantum_length_s(self) -> float:
        return self.config.quanta_length_s

    # ------------------------------------------------------------- decision
    #
    # `decide` itself is StagePipeline.decide: run the declared stages over
    # a fresh StageState, bracketed by the two hooks below.

    def begin_quantum(self, state: StageState) -> None:
        # Anchor this decision cycle's events to the quantum whose
        # counters drive it; stages stamp their events from `bus.now`.
        self.bus.at(state.counters.quantum_index, state.counters.time_s)

    def end_quantum(self, state: StageState) -> None:
        # Register next-quantum predictions for every live thread — the
        # quantity Figures 7/8 score.  The closed-loop model's stay-case is
        # persistence ("if thread t_l stays on the same core, we expect it
        # to keep the same access rate"); for swapped threads the moved-case
        # estimate applies: the destination core's bandwidth, capped by the
        # thread's own demand (a compute thread will not consume a fast
        # core's entire memory bandwidth no matter where it lands).
        counters, report, placement = state.counters, state.report, state.placement
        tids = placement.tids
        rates = report.rate_by_tid[report.tid_slots(tids)]
        measured = rates > 0.0
        self._pend(tids[measured], rates[measured], counters)
        moved: dict[int, float] = {}
        for pred in state.accepted:
            for tid, dest in (
                (pred.pair.t_l, placement[pred.pair.t_h]),
                (pred.pair.t_h, placement[pred.pair.t_l]),
            ):
                predicted = min(report.core_bw_of(dest), report.demand_of(tid))
                if predicted == predicted:  # not NaN
                    moved[tid] = max(predicted - self.predictor.overhead(predicted), 0.0)
        if moved:
            self._pend(
                np.fromiter(moved, np.int64, len(moved)),
                np.fromiter(moved.values(), np.float64, len(moved)),
                counters,
            )

    # ------------------------------------------------------------ internals

    def _set_config(self, cfg: DikeConfig, quantum_index: int) -> None:
        self.config = cfg
        self.selector.config = cfg
        self.predictor.config = cfg
        self.decider.config = cfg
        self.observer.config = cfg
        self._config_history.append(
            (quantum_index, cfg.swap_size, cfg.quanta_length_s)
        )

    def _pend(self, tids: np.ndarray, predicted: np.ndarray, counters) -> None:
        """Register ``predicted[i]`` for ``tids[i]`` (distinct tids) at this
        quantum, as ``pending[tid] = ...`` would: a tid already pending
        keeps its place and takes the new values, the others append."""
        book = self._pending
        if book[0].size:
            at = _positions(book[0], tids)
            known = at >= 0
            if np.count_nonzero(known):
                rows = at[known]
                book[1][rows] = counters.quantum_index
                book[2][rows] = counters.time_s
                book[3][rows] = predicted[known]
                tids, predicted = tids[~known], predicted[~known]
        if not tids.size:
            return
        quantum_index, time_s = np.empty(tids.size, np.int64), np.empty(tids.size)
        quantum_index.fill(counters.quantum_index)
        time_s.fill(counters.time_s)
        new = (tids, quantum_index, time_s, predicted)
        if book[0].size:
            new = tuple(map(np.concatenate, zip(book, new)))
        self._pending = new

    def _backfill_predictions(self, counters, report) -> None:
        """Match predictions from the previous quantum with measurements."""
        tids, quantum_index, time_s, predicted = self._pending
        if not tids.size:
            return
        due = quantum_index < counters.quantum_index
        actual = report.rate_by_tid[report.tid_slots(tids)]
        scored = due & (actual > 0.0)
        records = (time_s, quantum_index, tids, predicted, actual)
        if np.count_nonzero(scored) < tids.size:
            records = tuple(column[scored] for column in records)
        for column, values in zip(self._log, records):
            column.append(values)
        if self.metrics is not None:
            histogram = self.metrics.histogram("dike.prediction_abs_rel_error")
            for p, a in zip(records[3].tolist(), records[4].tolist()):
                histogram.observe(abs(p - a) / a)
        # The book is replaced, never written again: the log may share it.
        if np.count_nonzero(due) == tids.size:
            self._pending = _NO_PENDING
        else:
            self._pending = tuple(column[~due] for column in self._pending)

    def drain_prediction_records(self) -> PredictionLog:
        log = PredictionLog(
            *(np.concatenate(chunks) if chunks else () for chunks in self._log)
        )
        self._log = ([], [], [], [], [])
        return log

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info.update(self._initial_config.describe())
        history = getattr(self, "_config_history", None)
        if history is not None:
            info["config_history"] = tuple(history)
        return info


#: an empty book of pending predictions (see ``DikeScheduler._pending``)
_NO_PENDING = (
    np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0)
)


def _positions(book: np.ndarray, tids: np.ndarray) -> np.ndarray:
    """Index of each of ``tids`` in ``book`` (distinct tids), -1 if absent."""
    order = book.argsort()
    at = order[np.minimum(book.searchsorted(tids, sorter=order), book.size - 1)]
    return np.where(book[at] == tids, at, -1)
