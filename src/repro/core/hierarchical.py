"""Hierarchical Dike: cluster-then-schedule for thousand-vcore machines.

The paper's Selector does a global fairness sort and pairwise swap search
every quantum — fine at 40 vcores, hopeless at 1024.  Following Agon
(coarse classification into contention clusters, then per-cluster
scheduling at a fraction of the decision cost) and LFOC (lightweight
fairness clustering composing with per-cluster policies), this module
adds a **cluster-then-schedule** family as stage substitutions on the
Dike pipeline (`repro.core.dike`):

* :class:`ClusterStage` partitions the machine's sockets into
  ``n_clusters`` socket-aligned vcore partitions and derives each live
  thread's cluster from its current placement, emitting
  :class:`~repro.obs.events.ClusterAssigned` whenever membership changes.
* :class:`HierSelectorStage` runs Dike's violator-pair selection *inside
  one cluster per quantum*, round-robin over clusters — each cluster gets
  an independent Selector -> Predictor -> Decider -> Migrator decision
  confined to its vcore partition (selected pairs never cross partitions),
  and the per-quantum decision cost drops to one cluster's sort instead
  of the whole machine's.
* :class:`InterClusterRebalancerStage` periodically exchanges extreme
  threads between the most divergent clusters when per-cluster contention
  counters drift apart — Agon-style on mean access rate (``dike-hier``)
  or LFOC-style on per-cluster rate CV, a fairness signal
  (``dike-hier-fair``) — emitting
  :class:`~repro.obs.events.RebalanceExecuted`.  Exchanges are ``Swap``
  pairs drawn from the *leftover* swap budget and registered with the
  Decider's cooldown book, so the swap-budget, cooldown and permutation
  invariants hold exactly as for flat Dike.

With an effective cluster count of 1 every hierarchical stage reduces to
the flat path (no extra events, the Selector sees the full placement), so
``dike-hier`` with ``n_clusters=1`` is trace-identical to flat ``dike`` —
the equivalence gate CI enforces on the paper topology.

Per-run mutable state (partitions, membership, rebalance counters) lives
on the scheduler, never on the stage objects: stages are
stateless-by-convention shared singletons (see `repro.schedulers.pipeline`).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DikeConfig
from repro.core.decider import Decider
from repro.core.dike import DIKE_STAGES, DikeScheduler, MigratorStage, SelectorStage
from repro.core.observer import ObserverReport
from repro.core.predictor import PairPrediction
from repro.core.selector import ThreadPair
from repro.obs.events import NULL_BUS, ClusterAssigned, RebalanceExecuted
from repro.schedulers.base import Placement, SchedulingContext
from repro.schedulers.pipeline import Stage, StageState
from repro.sim.topology import Topology
from repro.util.stats import left_sum
from repro.util.validation import require

__all__ = [
    "ClusterPartitioner",
    "InterClusterRebalancer",
    "ClusterStage",
    "HierSelectorStage",
    "InterClusterRebalancerStage",
    "HIER_STAGES",
    "HierarchicalScheduler",
    "CLUSTER_SIGNALS",
]

#: The rebalancer's divergence signals: ``"rate"`` is the Agon-style mean
#: access rate (contention pressure), ``"fairness"`` the LFOC-style
#: coefficient of variation of member rates (intra-cluster unfairness).
CLUSTER_SIGNALS = ("rate", "fairness")


class ClusterPartitioner:
    """Socket-aligned vcore partitions and placement-derived membership.

    Sockets are split into ``k`` contiguous runs (``k`` = requested
    cluster count capped by the socket count; 0 = one cluster per
    socket), so every cluster's vcore partition is a union of whole
    sockets — partitions are disjoint, socket-aligned, and cover the
    machine.  A thread belongs to the cluster owning its current vcore,
    so swap-based scheduling (which never leaves a partition except
    through the rebalancer) keeps membership stable.
    """

    def __init__(self, topology: Topology, n_clusters: int) -> None:
        require(n_clusters >= 0, "n_clusters must be >= 0 (0 = auto)")
        n_sockets = topology.n_sockets
        k = n_sockets if n_clusters == 0 else min(n_clusters, n_sockets)
        self.k = k
        bounds = [round(i * n_sockets / k) for i in range(k + 1)]
        self.socket_runs: tuple[tuple[int, ...], ...] = tuple(
            tuple(range(bounds[i], bounds[i + 1])) for i in range(k)
        )
        self.labels: tuple[str, ...] = tuple(
            f"sockets-{run[0]}-{run[-1]}" for run in self.socket_runs
        )
        self.vcore_partitions: tuple[tuple[int, ...], ...] = tuple(
            tuple(v for sid in run for v in topology.vcores_on_socket(sid))
            for run in self.socket_runs
        )
        socket_cluster = [0] * n_sockets
        for idx, run in enumerate(self.socket_runs):
            for sid in run:
                socket_cluster[sid] = idx
        #: vcore id -> cluster index
        self.vcore_cluster: list[int] = [
            socket_cluster[int(s)] for s in topology.vcore_socket
        ]
        self._cluster_of = np.array(self.vcore_cluster, dtype=np.int64)

    def members(self, placement: Placement) -> list[np.ndarray]:
        """Cluster membership of every placed thread, from its vcore:
        each cluster's rows of the placement's columns, in placement
        order."""
        cluster = self._cluster_of[placement.vcores]
        rows = cluster.argsort(kind="stable")
        ends = np.add.accumulate(np.bincount(cluster, minlength=self.k)).tolist()
        return [rows[lo:hi] for lo, hi in zip([0, *ends], ends)]


class InterClusterRebalancer:
    """Periodic whole-thread exchange between divergent clusters.

    Every ``period`` quanta the per-cluster signal (see
    :data:`CLUSTER_SIGNALS`) is computed; when the extreme clusters
    diverge by more than ``threshold`` (relative to the mean signal), the
    hottest thread of the high cluster and the coolest thread of the low
    cluster exchange vcores.  The exchange is an ordinary ``Swap`` pair:
    it consumes leftover swap budget, skips threads in cooldown or
    already claimed this quantum, and registers both threads in the
    Decider's cooldown book — so every flat-Dike invariant keeps holding.
    """

    def __init__(self, period: int, threshold: float, signal: str) -> None:
        require(period >= 1, "rebalance_period must be >= 1")
        require(threshold >= 0.0, "rebalance_threshold must be >= 0")
        require(
            signal in CLUSTER_SIGNALS,
            f"cluster signal must be one of {CLUSTER_SIGNALS}, got {signal!r}",
        )
        self.period = period
        self.threshold = threshold
        self.signal = signal
        self.bus = NULL_BUS
        self.n_rebalances = 0

    def _signal(self, rates: list[float]) -> float | None:
        if not rates:
            return None
        mean = left_sum(rates) / len(rates)
        if self.signal == "rate":
            return mean
        if mean <= 0.0:
            return 0.0
        var = left_sum((r - mean) ** 2 for r in rates) / len(rates)
        return (var ** 0.5) / mean

    def rebalance(
        self,
        members: list[np.ndarray],
        placement: Placement,
        report: ObserverReport,
        accepted: list[PairPrediction],
        decider: Decider,
        config: DikeConfig,
        quantum_index: int,
        time_s: float,
    ) -> list[PairPrediction]:
        """At most one cross-cluster exchange, within the leftover budget.

        ``members`` holds each cluster's rows of ``placement``, as
        :meth:`ClusterPartitioner.members` returns them.
        """
        if quantum_index == 0 or quantum_index % self.period != 0:
            return []
        if len(accepted) >= config.n_pairs:
            return []  # the per-cluster decision already spent the budget
        # each cluster's threads the report measured, in placement order
        present = report.present_by_tid
        measured = [
            tids[present[report.tid_slots(tids)]]
            for tids in (placement.tids[rows] for rows in members)
        ]
        signals: list[float | None] = [
            self._signal(report.rate_by_tid[tids].tolist()) for tids in measured
        ]
        live = [i for i, s in enumerate(signals) if s is not None]
        if len(live) < 2:
            return []
        hi = max(live, key=lambda i: (signals[i], -i))
        lo = min(live, key=lambda i: (signals[i], i))
        if hi == lo:
            return []
        scale = left_sum(abs(signals[i]) for i in live) / len(live)
        if signals[hi] - signals[lo] <= self.threshold * max(scale, 1e-12):
            return []
        claimed = {t for p in accepted for t in (p.pair.t_l, p.pair.t_h)}

        def eligible(tids: np.ndarray) -> list[int]:
            cooling = decider._in_cooldown
            return [
                t for t in tids.tolist()
                if t not in claimed and not cooling(t, quantum_index, time_s)
            ]

        donors, recipients = eligible(measured[hi]), eligible(measured[lo])
        if not donors or not recipients:
            return []
        # Hottest thread of the pressured cluster trades places with the
        # coolest thread of the relaxed one: pressure moves to headroom.
        rate_of = report.rate_of
        t_h = max(donors, key=lambda t: (rate_of(t), -t))
        t_l = min(recipients, key=lambda t: (rate_of(t), t))
        rate_l, rate_h = rate_of(t_l), rate_of(t_h)
        pred = PairPrediction(
            pair=ThreadPair(t_l=t_l, t_h=t_h),
            profit_l=0.0,
            profit_h=0.0,
            predicted_rate_l=rate_l,
            predicted_rate_h=rate_h,
            current_rate_l=rate_l,
            current_rate_h=rate_h,
        )
        decider._last_swap[t_l] = (quantum_index, time_s)
        decider._last_swap[t_h] = (quantum_index, time_s)
        self.n_rebalances += 1
        if self.bus.enabled:
            self.bus.emit(
                RebalanceExecuted(
                    *self.bus.now,
                    cluster_a=hi,
                    cluster_b=lo,
                    tids_a=(t_h,),
                    tids_b=(t_l,),
                    signal_a=float(signals[hi]),
                    signal_b=float(signals[lo]),
                )
            )
        if self.bus.metrics is not None:
            self.bus.metrics.counter("dike.rebalance_executed").inc()
        return [pred]


# --------------------------------------------------------------- stages


class ClusterStage(Stage):
    """Refresh thread-cluster membership from the current placement."""

    name = "cluster"

    def run(self, pipeline: "HierarchicalScheduler", state: StageState) -> None:
        partitioner = pipeline.partitioner
        if partitioner.k <= 1:
            # Single cluster: the hierarchical pipeline *is* flat Dike.
            # No membership, no events — traces stay byte-identical.
            pipeline._cluster_members = None
            return
        with pipeline.stage_timer(self):
            members = partitioner.members(state.placement)
        pipeline._cluster_members = members
        if pipeline.bus.enabled:
            tids = state.placement.tids
            for idx, rows in enumerate(members):
                key = tuple(tids[rows].tolist())
                if pipeline._emitted_members[idx] != key:
                    pipeline._emitted_members[idx] = key
                    pipeline.bus.emit(
                        ClusterAssigned(
                            *pipeline.bus.now,
                            cluster=idx,
                            label=partitioner.labels[idx],
                            tids=key,
                            vcores=partitioner.vcore_partitions[idx],
                        )
                    )


class HierSelectorStage(Stage):
    """Per-cluster violator-pair selection, round-robin over clusters.

    Quantum ``q`` decides for cluster ``q % k``: the Selector sees only
    that cluster's threads (its vcore partition), so a swap can never
    cross partitions and the per-quantum sort is one cluster wide.  With
    one cluster this is exactly the flat ``SelectorStage``.
    """

    name = "selector"

    def run(self, pipeline: "HierarchicalScheduler", state: StageState) -> None:
        with pipeline.stage_timer(self):
            members = pipeline._cluster_members
            tids, vcores = state.placement.tids, state.placement.vcores
            if members is None:
                state.pairs = pipeline.selector.select(state.report, tids, vcores)
                return
            rows = members[state.counters.quantum_index % len(members)]
            pairs = pipeline.selector.select(state.report, tids[rows], vcores[rows])
            state.pairs = pairs[: pipeline.config.n_pairs]


class InterClusterRebalancerStage(Stage):
    """Periodically exchange threads between divergent clusters."""

    name = "rebalancer"

    def run(self, pipeline: "HierarchicalScheduler", state: StageState) -> None:
        members = pipeline._cluster_members
        if members is None:
            return
        with pipeline.stage_timer(self):
            extra = pipeline.rebalancer.rebalance(
                members,
                state.placement,
                state.report,
                state.accepted,
                pipeline.decider,
                pipeline.config,
                state.counters.quantum_index,
                state.counters.time_s,
            )
        if extra:
            state.accepted.extend(extra)


def _hier_stages() -> tuple[Stage, ...]:
    stages: list[Stage] = []
    for stage in DIKE_STAGES:
        if isinstance(stage, SelectorStage):
            stages.append(ClusterStage())
            stages.append(HierSelectorStage())
        elif isinstance(stage, MigratorStage):
            stages.append(InterClusterRebalancerStage())
            stages.append(stage)
        else:
            stages.append(stage)
    return tuple(stages)


#: Dike's pipeline with clustering, per-cluster selection and the
#: inter-cluster rebalancer spliced in as stage substitutions.
HIER_STAGES: tuple[Stage, ...] = _hier_stages()


# ----------------------------------------------------------- scheduler


class HierarchicalScheduler(DikeScheduler):
    """Cluster-then-schedule Dike (policies ``dike-hier`` / ``dike-hier-fair``)."""

    def __init__(
        self,
        config: DikeConfig | None = None,
        name: str = "dike-hier",
        n_clusters: int = 0,
        rebalance_period: int = 10,
        rebalance_threshold: float = 0.2,
        cluster_signal: str = "rate",
    ) -> None:
        super().__init__(config, name=name, stages=HIER_STAGES)
        require(n_clusters >= 0, "n_clusters must be >= 0 (0 = auto)")
        require(rebalance_period >= 1, "rebalance_period must be >= 1")
        require(rebalance_threshold >= 0.0, "rebalance_threshold must be >= 0")
        require(
            cluster_signal in CLUSTER_SIGNALS,
            f"cluster_signal must be one of {CLUSTER_SIGNALS}, "
            f"got {cluster_signal!r}",
        )
        self.n_clusters = n_clusters
        self.rebalance_period = rebalance_period
        self.rebalance_threshold = rebalance_threshold
        self.cluster_signal = cluster_signal

    def prepare(self, context: SchedulingContext) -> None:
        super().prepare(context)
        self.partitioner = ClusterPartitioner(context.topology, self.n_clusters)
        self.rebalancer = InterClusterRebalancer(
            self.rebalance_period, self.rebalance_threshold, self.cluster_signal
        )
        self.rebalancer.bus = context.bus
        #: per-quantum membership, each cluster's rows of the placement
        #: (None while the effective k is 1)
        self._cluster_members: list[np.ndarray] | None = None
        #: last ClusterAssigned payload per cluster (change detection)
        self._emitted_members: list[tuple[int, ...] | None] = [
            None
        ] * self.partitioner.k

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["n_clusters"] = self.n_clusters
        info["rebalance_period"] = self.rebalance_period
        info["rebalance_threshold"] = self.rebalance_threshold
        info["cluster_signal"] = self.cluster_signal
        partitioner = getattr(self, "partitioner", None)
        if partitioner is not None:
            info["effective_clusters"] = partitioner.k
            info["n_rebalances"] = self.rebalancer.n_rebalances
        return info
