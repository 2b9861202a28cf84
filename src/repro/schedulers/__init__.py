"""Baseline scheduling policies and the shared scheduler interface.

`repro.schedulers.pipeline` adds the composable :class:`StagePipeline`
base multi-stage schedulers (Dike and its ablations) declare their
per-quantum stage list on.
"""

from repro.schedulers.base import (
    Action,
    Move,
    Placement,
    Scheduler,
    SchedulingContext,
    Suspend,
    Swap,
    ThreadInfo,
    spread_placement,
)
from repro.schedulers.pipeline import Stage, StagePipeline, StageState
from repro.schedulers.oracle import OracleStaticScheduler
from repro.schedulers.suspension import SuspensionScheduler
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.dio import DIOScheduler
from repro.schedulers.random_policy import RandomSwapScheduler
from repro.schedulers.static import StaticScheduler

__all__ = [
    "Action",
    "Move",
    "Placement",
    "Scheduler",
    "SchedulingContext",
    "Suspend",
    "Swap",
    "ThreadInfo",
    "spread_placement",
    "Stage",
    "StagePipeline",
    "StageState",
    "OracleStaticScheduler",
    "SuspensionScheduler",
    "CFSScheduler",
    "DIOScheduler",
    "RandomSwapScheduler",
    "StaticScheduler",
]
