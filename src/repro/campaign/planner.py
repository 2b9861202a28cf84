"""Campaign specs and planning: grids in, deduplicated task lists out.

A :class:`CampaignSpec` names a policy × workload × seed grid (optionally
crossed with the 32-point ⟨swapSize, quantaLength⟩ configuration space,
or with an arbitrary declarative ``param_grid`` validated against each
policy's registry schema) and :func:`plan` expands it into a
:class:`CampaignPlan` whose tasks are **unique by cache key** — the CFS
baseline a dozen figures share appears exactly once, which is both the
dedup guarantee and the DAG: every task is independent (metrics that
*relate* runs, like speedup-over-baseline, are computed by the consumer
after gather), so the plan is a single parallel wave.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.campaign.batching import batch_signature, batchable, plan_batches
from repro.campaign.cachekey import cache_key
from repro.campaign.spec import SimParams
from repro.core.config import QUANTA_CHOICES_S, SWAP_SIZE_CHOICES
from repro.policies import REGISTRY
from repro.topologies import TOPOLOGY_REGISTRY
from repro.util.rng import DEFAULT_SEED
from repro.util.validation import require
from repro.workloads.suite import WORKLOAD_TABLE, workload

if TYPE_CHECKING:
    from repro.spec import ExperimentSpec

__all__ = [
    "CampaignSpec",
    "CampaignPlan",
    "plan",
    "dedupe",
    # batching (see repro.campaign.batching): grouping homogeneous tasks
    # into multi-run units is part of planning a campaign's execution
    "batchable",
    "batch_signature",
    "plan_batches",
]


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative experiment grid (the CLI's ``repro campaign`` unit).

    Defaults reproduce the Figure 6 grid: the five standard policies on
    all 16 workloads at one seed.  ``sweep=True`` additionally crosses
    every workload with non-adaptive Dike's 32 configurations (the raw
    data of Figures 2/4/5).
    """

    name: str = "fig6-grid"
    workloads: tuple[str, ...] = tuple(WORKLOAD_TABLE)
    policies: tuple[str, ...] = tuple(
        s.name for s in REGISTRY.tagged("standard")
    )
    seeds: tuple[int, ...] = (DEFAULT_SEED,)
    work_scale: float = 1.0
    sweep: bool = False
    #: declarative parameter grid: ``(("swap_size", (4, 8)),
    #: ("fairness_threshold", (0.05, 0.1)))`` crosses every policy whose
    #: registry schema covers *all* grid keys with the full cartesian
    #: product (each point validated via ``PolicySpec.from_params`` at
    #: planning time and folded into the cache key); policies whose
    #: schema misses a key get one unparameterised task instead.
    param_grid: tuple[tuple[str, tuple], ...] = ()
    #: check every run against its policy's invariant contract (the
    #: registry spec's ``invariants`` tuple); violation counts surface in
    #: campaign telemetry and ``RunResult.info["invariants"]``
    invariants: bool = False
    #: shared-LLC backend name (`repro.sim.llc`); ``None`` = NullLLC
    llc: str | None = None
    #: machine preset name (`repro.topologies.TOPOLOGY_REGISTRY`)
    topology: str = "heterogeneous"
    #: preset customisation, validated against the topology's schema
    topology_params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        require(len(self.workloads) >= 1, "a campaign needs >= 1 workload")
        require(len(self.seeds) >= 1, "a campaign needs >= 1 seed")
        for w in self.workloads:
            require(w in WORKLOAD_TABLE, f"unknown workload {w!r}")
        for p in self.policies:
            REGISTRY.get(p)  # raises UnknownPolicyError on a bad name
        for key, values in self.param_grid:
            require(
                len(tuple(values)) >= 1,
                f"param_grid entry {key!r} needs >= 1 value",
            )
        # Raises UnknownTopologyError / ValueError on a bad name or params.
        TOPOLOGY_REGISTRY.get(self.topology).validate_params(
            dict(self.topology_params)
        )


@dataclass(frozen=True)
class CampaignPlan:
    """Deduplicated specs plus bookkeeping for the dry-run report."""

    spec: CampaignSpec
    tasks: tuple[ExperimentSpec, ...]
    keys: tuple[str, ...]
    n_requested: int
    #: keys already present in the cache at planning time (dry-run info)
    cached: frozenset[str] = field(default_factory=frozenset)

    @property
    def n_unique(self) -> int:
        return len(self.tasks)

    @property
    def n_to_run(self) -> int:
        return sum(1 for k in self.keys if k not in self.cached)

    def describe(self) -> str:
        lines = [
            f"campaign {self.spec.name!r}: "
            f"{len(self.spec.workloads)} workloads x "
            f"{len(self.spec.policies)} policies x "
            f"{len(self.spec.seeds)} seeds"
            + (" + config sweep" if self.spec.sweep else "")
            + (
                " + param grid over "
                + ",".join(k for k, _ in self.spec.param_grid)
                if self.spec.param_grid
                else ""
            ),
            f"  requested {self.n_requested} runs, {self.n_unique} unique "
            f"({self.n_requested - self.n_unique} deduplicated)",
            f"  cached {self.n_unique - self.n_to_run}, to run {self.n_to_run}",
        ]
        return "\n".join(lines)


def dedupe(
    tasks: list[ExperimentSpec],
) -> tuple[tuple[ExperimentSpec, ...], tuple[str, ...]]:
    """Order-preserving dedup by cache key; returns (specs, keys) aligned."""
    seen: dict[str, ExperimentSpec] = {}
    for t in tasks:
        seen.setdefault(cache_key(t), t)
    return tuple(seen.values()), tuple(seen.keys())


def _policy_grid_points(
    policy: str, param_grid: tuple[tuple[str, tuple], ...]
) -> tuple[dict | None, ...]:
    """The parameter points ``policy`` contributes to the campaign.

    The full cartesian product when the policy's schema covers every grid
    key (each point validated against the schema here, at planning time);
    a single unparameterised point otherwise — a grid over ``swap_size``
    must not drop the CFS baseline from the campaign, nor force Dike
    parameters onto it.
    """
    if not param_grid:
        return (None,)
    policy_spec = REGISTRY.get(policy)
    known = set(policy_spec.param_names())
    if any(key not in known for key, _ in param_grid):
        return (None,)
    keys = [key for key, _ in param_grid]
    points = []
    for combo in itertools.product(*(values for _, values in param_grid)):
        params = dict(zip(keys, combo))
        policy_spec.from_params(params)  # validate at planning time
        points.append(params)
    return tuple(points)


def plan(spec: CampaignSpec, cached_keys: frozenset[str] | None = None) -> CampaignPlan:
    """Expand a campaign spec into its deduplicated experiment specs."""
    # Late import: repro.spec imports this package's spec module.
    from repro.spec import ExperimentSpec

    sim = SimParams(
        work_scale=spec.work_scale,
        llc=spec.llc,
        topology=spec.topology,
        topology_params=spec.topology_params,
    )
    inv = spec.invariants
    requested: list[ExperimentSpec] = []
    grids = {
        policy: _policy_grid_points(policy, spec.param_grid)
        for policy in spec.policies
    }
    for wl_name in spec.workloads:
        wl = workload(wl_name)
        for seed in spec.seeds:
            for policy in spec.policies:
                for params in grids[policy]:
                    requested.append(
                        ExperimentSpec.for_workload(
                            wl, policy, seed, params, sim=sim, invariants=inv
                        )
                    )
            if spec.sweep:
                # The sweep's speedups need the CFS baseline — shared, by
                # dedup, with the policy grid above.
                requested.append(
                    ExperimentSpec.for_workload(
                        wl, "cfs", seed, sim=sim, invariants=inv
                    )
                )
                for q in QUANTA_CHOICES_S:
                    for s in SWAP_SIZE_CHOICES:
                        requested.append(
                            ExperimentSpec.for_workload(
                                wl, "dike", seed,
                                {"quanta_length_s": q, "swap_size": s},
                                sim=sim,
                                invariants=inv,
                            )
                        )
    tasks, keys = dedupe(requested)
    return CampaignPlan(
        spec=spec,
        tasks=tasks,
        keys=keys,
        n_requested=len(requested),
        cached=frozenset(k for k in keys if k in (cached_keys or frozenset())),
    )
