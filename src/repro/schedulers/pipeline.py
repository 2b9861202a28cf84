"""Generic composable stage pipeline for multi-stage schedulers.

The paper's Dike scheduler is a five-stage per-quantum pipeline
(Observer -> Selector -> Predictor -> Decider -> Migrator, §III) with the
Optimizer re-tuning parameters between quanta.  Before this module that
pipeline was hard-wired inside ``DikeScheduler.decide``; ablation variants
(no predictor, no decider, alternative selectors) each required editing
the scheduler itself.

:class:`StagePipeline` factors the pattern out: a scheduler *declares* an
ordered tuple of :class:`Stage` objects and the base class runs them over
a shared mutable :class:`StageState` every quantum.  Each stage reads the
fields earlier stages filled in (``report``, ``pairs``, ``predictions``,
``accepted``) and writes its own, so hybrids and ablations are a stage
*list*, not a code fork — swap one stage for a pass-through and the rest
of the pipeline is untouched.  The `repro.policies` registry builds the
fig6-style ablation policies exactly this way.

Stages are **stateless by convention**: per-run state lives on the
pipeline scheduler (components like the Observer are rebuilt in
``prepare``), so one stage object can be shared by every scheduler
instance of a policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.schedulers.base import Action, Placement, Scheduler, SchedulingContext
from repro.sim.counters import QuantumCounters
from repro.util.validation import require

__all__ = ["Stage", "StageState", "StagePipeline", "maybe_timer"]


class _NullTimer:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


def maybe_timer(metrics, name: str):
    """A stage wall-time timer, or a no-op when metrics are off."""
    return _NULL_TIMER if metrics is None else metrics.timer(name)


@dataclass(slots=True)
class StageState:
    """Mutable per-quantum dataflow shared by a pipeline's stages.

    ``counters`` and ``placement`` are the engine's inputs to ``decide``
    (stages read the placement's ``tids`` and ``vcores`` columns);
    every other field starts empty and is filled by the stage that owns
    it (``report`` by the observer stage, ``pairs`` by the selector stage,
    and so on).  ``actions`` is what ``decide`` returns to the engine.
    """

    counters: QuantumCounters
    placement: Placement
    report: object | None = None
    pairs: list | None = None
    predictions: list | None = None
    accepted: list | None = None
    actions: Sequence[Action] = field(default_factory=tuple)


class Stage(abc.ABC):
    """One step of a :class:`StagePipeline`'s per-quantum decision.

    ``name`` labels the stage in ``describe()`` output and keys its
    wall-time metric (``<metric_prefix>.<name>_s``); replacement stages
    (ablations) reuse the replaced stage's name so metrics and docs line
    up across variants.
    """

    name: str = "stage"

    @abc.abstractmethod
    def run(self, pipeline: "StagePipeline", state: StageState) -> None:
        """Advance ``state`` by this stage's contribution."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class StagePipeline(Scheduler):
    """A scheduler whose per-quantum decision is a declared stage list.

    Subclasses pass their stage tuple to ``__init__`` (or accept one, so
    a registry can compose variants), build their per-run components in
    ``prepare``, and may override :meth:`begin_quantum` /
    :meth:`end_quantum` for bookkeeping that brackets the stage run —
    event-bus anchoring before, closed-loop bookkeeping after.
    """

    #: Prefix of the per-stage wall-time metrics.
    metric_prefix: str = "pipeline"

    def __init__(self, stages: Sequence[Stage]) -> None:
        stages = tuple(stages)
        require(len(stages) >= 1, "a stage pipeline needs >= 1 stage")
        self.stages = stages

    def prepare(self, context: SchedulingContext) -> None:
        super().prepare(context)
        self.bus = context.bus
        self.metrics = context.bus.metrics

    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def stage_timer(self, stage: Stage):
        """The wall-time timer of one stage (no-op without metrics)."""
        return maybe_timer(self.metrics, f"{self.metric_prefix}.{stage.name}_s")

    # ------------------------------------------------------------ hooks

    def begin_quantum(self, state: StageState) -> None:
        """Called before the first stage of every quantum."""

    def end_quantum(self, state: StageState) -> None:
        """Called after the last stage, before actions reach the engine."""

    # ---------------------------------------------------------- decision

    def decide(
        self, counters: QuantumCounters, placement: Mapping[int, int]
    ) -> Sequence[Action]:
        """Run the stages; any mapping other than a :class:`Placement`
        (a hand-made dict) becomes one first."""
        state = StageState(counters=counters, placement=Placement.of(placement))
        self.begin_quantum(state)
        for stage in self.stages:
            stage.run(self, state)
        self.end_quantum(state)
        return state.actions

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["stages"] = self.stage_names()
        return info
