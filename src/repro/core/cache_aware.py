"""Cache-aware fairness policies: LFOC-style clustering, BLISS-style
blacklisting.

Both are **stage substitutions** on the Dike pipeline (`repro.core.dike`):
the Observer, Predictor, Decider, Migrator and Optimizer are untouched —
only the Selector stage is replaced, so everything the registry knows
about Dike (invariant contract, parameter schema, closed-loop prediction
bookkeeping) carries over.

* **lfoc** (after LFOC, "fairness-oriented cache clustering"): per
  quantum, live threads are partitioned into *cache clusters* by access
  rate — contiguous slices of the sorted-by-rate array — and Dike's
  violator-pair selection runs *within* each cluster.  Swaps therefore
  exchange threads of comparable cache appetite, equalising progress
  inside each intensity class instead of churning streaming threads
  against compute threads.
* **bliss** (after the Blacklisting Memory Scheduler): threads whose
  access rate exceeds ``interference_threshold`` × the live mean are
  *blacklisted* — removed from pair selection — for ``blacklist_quanta``
  quanta.  The heaviest interferers sit still while the rest of the
  system rebalances around them; low complexity, most of the fairness.

Both emit :class:`~repro.obs.events.CacheClusterFormed` events (one per
cluster / one for the blacklist) so traces show the grouping behind
every selection, and both work with any memory backend — under
``OccupancyLLC`` the access rates they group by respond to cache
squeezing, which is what makes the clusters meaningful.

Per-run mutable state (the blacklist) lives on the scheduler subclass,
never on the stage objects: stages are stateless-by-convention shared
singletons (see `repro.schedulers.pipeline`).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DikeConfig
from repro.core.dike import DIKE_STAGES, DikeScheduler, SelectorStage
from repro.core.observer import ObserverReport
from repro.core.selector import Selector, ThreadPair
from repro.obs.events import NULL_BUS, CacheClusterFormed
from repro.schedulers.base import Placement, SchedulingContext
from repro.schedulers.pipeline import Stage, StageState
from repro.util.stats import left_sums
from repro.util.validation import require

__all__ = [
    "CacheClusterer",
    "Blacklister",
    "ClusteredSelectorStage",
    "BlacklistSelectorStage",
    "LFOC_STAGES",
    "BLISS_STAGES",
    "LFOCScheduler",
    "BLISSScheduler",
]


class CacheClusterer:
    """LFOC-style per-quantum clustering + within-cluster selection."""

    def __init__(self, n_clusters: int) -> None:
        require(n_clusters >= 1, "n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.bus = NULL_BUS

    def partition(
        self, report: ObserverReport, placement: Placement
    ) -> list[np.ndarray]:
        """Contiguous slices of the sorted-by-access-rate live threads
        the report measured, as rows of the placement's columns.

        At most ``n_clusters`` clusters, each with >= 2 members where
        the population allows (a 1-thread cluster can never pair).
        Deterministic: ties break by tid, split points by position.
        """
        tids = placement.tids
        slots = report.tid_slots(tids)
        measured = report.present_by_tid[slots]
        n = np.count_nonzero(measured)
        if n < 2:
            return []
        rows = np.lexsort((tids, report.rate_by_tid[slots], ~measured))[:n]
        k = max(1, min(self.n_clusters, n // 2))
        bounds = [round(i * n / k) for i in range(k + 1)]
        return [rows[bounds[i]:bounds[i + 1]] for i in range(k)]

    def select(
        self,
        report: ObserverReport,
        placement: Placement,
        selector: Selector,
        config: DikeConfig,
    ) -> list[ThreadPair]:
        """Run pair selection independently inside each cache cluster.

        The total is truncated to the pipeline's ``n_pairs`` budget so
        the swap-budget invariant holds regardless of cluster count.
        """
        if report.is_fair(config.fairness_threshold):
            return []
        clusters = self.partition(report, placement)
        tids, vcores = placement.tids, placement.vcores
        if self.bus.enabled:
            for k, rows in enumerate(clusters):
                self.bus.emit(
                    CacheClusterFormed(
                        *self.bus.now,
                        cluster=k,
                        label=f"cluster-{k}",
                        tids=tuple(tids[rows].tolist()),
                    )
                )
        pairs: list[ThreadPair] = []
        for rows in clusters:
            if len(pairs) >= config.n_pairs:
                break
            pairs.extend(selector.select(report, tids[rows], vcores[rows]))
        return pairs[: config.n_pairs]


class Blacklister:
    """BLISS-style interference blacklist over pair selection."""

    def __init__(
        self, interference_threshold: float, blacklist_quanta: int
    ) -> None:
        require(
            interference_threshold > 0.0,
            "interference_threshold must be > 0",
        )
        require(blacklist_quanta >= 1, "blacklist_quanta must be >= 1")
        self.interference_threshold = interference_threshold
        self.blacklist_quanta = blacklist_quanta
        self.bus = NULL_BUS
        #: tid -> quanta of deprioritisation left
        self._banned: dict[int, int] = {}

    @property
    def banned(self) -> frozenset[int]:
        return frozenset(self._banned)

    def select(
        self,
        report: ObserverReport,
        placement: Placement,
        selector: Selector,
    ) -> list[ThreadPair]:
        """Refresh the blacklist, then select among non-banned threads."""
        # Expire one quantum of every standing ban first, so a ban of N
        # quanta shadows exactly N selection rounds.
        for tid in list(self._banned):
            left = self._banned[tid] - 1
            if left <= 0:
                del self._banned[tid]
            else:
                self._banned[tid] = left
        tids, vcores = placement.tids, placement.vcores
        slots = report.tid_slots(tids)
        measured = report.present_by_tid[slots]
        if np.count_nonzero(measured):
            rates = report.rate_by_tid[slots[measured]]
            mean = left_sums(rates).item() / rates.size
            if mean > 0.0:
                cut = self.interference_threshold * mean
                for tid in tids[measured][rates > cut].tolist():
                    self._banned[tid] = self.blacklist_quanta
        if self._banned and self.bus.enabled:
            self.bus.emit(
                CacheClusterFormed(
                    *self.bus.now,
                    cluster=0,
                    label="blacklisted",
                    tids=tuple(sorted(self._banned)),
                )
            )
        if self._banned:
            allowed = ~np.isin(tids, np.fromiter(self._banned, np.int64))
            tids, vcores = tids[allowed], vcores[allowed]
        return selector.select(report, tids, vcores)


# --------------------------------------------------------------- stages


class ClusteredSelectorStage(Stage):
    """LFOC's selector: cluster by cache appetite, select within."""

    name = "selector"

    def run(self, pipeline: "LFOCScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.pairs = pipeline.clusterer.select(
                state.report, state.placement,
                pipeline.selector, pipeline.config,
            )


class BlacklistSelectorStage(Stage):
    """BLISS's selector: drop blacklisted interferers from pairing."""

    name = "selector"

    def run(self, pipeline: "BLISSScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            state.pairs = pipeline.blacklister.select(
                state.report, state.placement, pipeline.selector
            )


#: Dike's pipeline with the Selector stage replaced by clustering.
LFOC_STAGES: tuple[Stage, ...] = tuple(
    ClusteredSelectorStage() if isinstance(s, SelectorStage) else s
    for s in DIKE_STAGES
)

#: Dike's pipeline with the Selector stage replaced by blacklisting.
BLISS_STAGES: tuple[Stage, ...] = tuple(
    BlacklistSelectorStage() if isinstance(s, SelectorStage) else s
    for s in DIKE_STAGES
)


# ----------------------------------------------------------- schedulers


class LFOCScheduler(DikeScheduler):
    """Dike with fairness-oriented cache clustering (policy ``lfoc``)."""

    def __init__(
        self,
        config: DikeConfig | None = None,
        name: str = "lfoc",
        n_clusters: int = 3,
    ) -> None:
        super().__init__(config, name=name, stages=LFOC_STAGES)
        require(n_clusters >= 1, "n_clusters must be >= 1")
        self.n_clusters = n_clusters

    def prepare(self, context: SchedulingContext) -> None:
        super().prepare(context)
        self.clusterer = CacheClusterer(self.n_clusters)
        self.clusterer.bus = context.bus

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["n_clusters"] = self.n_clusters
        return info


class BLISSScheduler(DikeScheduler):
    """Dike with interference blacklisting (policy ``bliss``)."""

    def __init__(
        self,
        config: DikeConfig | None = None,
        name: str = "bliss",
        interference_threshold: float = 1.5,
        blacklist_quanta: int = 4,
    ) -> None:
        super().__init__(config, name=name, stages=BLISS_STAGES)
        require(
            interference_threshold > 0.0,
            "interference_threshold must be > 0",
        )
        require(blacklist_quanta >= 1, "blacklist_quanta must be >= 1")
        self.interference_threshold = interference_threshold
        self.blacklist_quanta = blacklist_quanta

    def prepare(self, context: SchedulingContext) -> None:
        super().prepare(context)
        self.blacklister = Blacklister(
            self.interference_threshold, self.blacklist_quanta
        )
        self.blacklister.bus = context.bus

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["interference_threshold"] = self.interference_threshold
        info["blacklist_quanta"] = self.blacklist_quanta
        return info
