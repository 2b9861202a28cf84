"""repro — reproduction of "Providing Fairness in Heterogeneous Multicores
with a Predictive, Adaptive Scheduler" (Dike, IPPS 2016).

Layers (see DESIGN.md):

* :mod:`repro.sim` — heterogeneous-multicore simulator substrate;
* :mod:`repro.workloads` — Rodinia-style phase-trace workloads (Table II);
* :mod:`repro.schedulers` — CFS / DIO / control baselines;
* :mod:`repro.core` — the Dike scheduler (the paper's contribution);
* :mod:`repro.policies` — declarative policy registry: specs, parameter
  schemas, invariant contracts (:data:`repro.REGISTRY`);
* :mod:`repro.topologies` — declarative machine registry: named presets
  with parameter schemas (:data:`repro.TOPOLOGY_REGISTRY`), from the
  paper's 40-vcore Xeon up to ~1024-vcore multi-socket machines;
* :mod:`repro.metrics` — fairness (Eqn. 4), speedup, swaps, prediction error;
* :mod:`repro.experiments` — per-figure/table regeneration harness;
* :mod:`repro.obs` — observability: event tracing, metrics, invariant
  contracts and trace divergence analysis, attached via one call
  (:func:`repro.attach`);
* :mod:`repro.campaign` — parallel, cached, fault-tolerant grids;
* :mod:`repro.spec` — the unified experiment spec: composable,
  schema-versioned :class:`repro.ExperimentSpec` (policy + topology refs
  validated against the registries), the one spec type the campaign
  layer plans, hashes and runs;
* :mod:`repro.tune` — offline search-based self-tuning (GA /
  successive halving) over cached campaign evaluations (`repro tune`);
* :mod:`repro.traffic` — open-loop load generation (arrival-process
  generators, job traces), lifecycle tracking and tail-latency metrics.

Quickstart::

    from repro import run_policies, workload, fairness, speedup

    results = run_policies(workload("wl1"), work_scale=0.1)
    base = results["cfs"]
    for name, res in results.items():
        print(name, fairness(res), speedup(res, base), res.swap_count)
"""

from repro.core import AdaptationGoal, DikeConfig, DikeScheduler
from repro.experiments.runner import (
    run_policies,
    run_scenario,
    run_standalone,
    run_workload,
)
from repro.policies import REGISTRY, ParamSpec, PolicyRegistry, PolicySpec
from repro.topologies import (
    TOPOLOGY_REGISTRY,
    TopologyRegistry,
    TopologySpec,
    UnknownTopologyError,
    parse_topology_arg,
)


def __getattr__(name: str):
    # Traffic subsystem entry points, resolved lazily to keep base import
    # cost flat (repro.traffic pulls in the campaign integration).
    if name in ("TrafficWorkload", "TrafficSpec", "JobTracker", "summarize_result"):
        from repro import traffic

        return getattr(traffic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# Imported after repro.experiments: the campaign package's cache-key
# module reaches into repro.experiments.serialization, so the experiments
# package must finish initialising first.
from repro.campaign import Campaign
from repro.spec import ExperimentSpec, PolicyRef, TopologyRef
from repro.obs import (
    DivergenceReport,
    InvariantSink,
    MetricsRegistry,
    attach,
)
from repro.metrics import (
    fairness,
    fairness_improvement,
    makespan_speedup,
    speedup,
    swap_count,
)
from repro.analysis import (
    build_report,
    compare_policies,
    replicate,
)
from repro.schedulers import (
    CFSScheduler,
    DIOScheduler,
    OracleStaticScheduler,
    RandomSwapScheduler,
    StaticScheduler,
    SuspensionScheduler,
)
from repro.sim import (
    MigrationModel,
    RunResult,
    SimulationEngine,
    Topology,
    homogeneous,
    multi_socket,
    xeon_e5_heterogeneous,
)
from repro.workloads import (
    WorkloadSpec,
    all_workloads,
    random_workload,
    workload,
    workload_with_mix,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptationGoal",
    "DikeConfig",
    "DikeScheduler",
    "REGISTRY",
    "PolicyRegistry",
    "PolicySpec",
    "ParamSpec",
    "TOPOLOGY_REGISTRY",
    "TopologyRegistry",
    "TopologySpec",
    "UnknownTopologyError",
    "parse_topology_arg",
    "run_policies",
    "run_scenario",
    "run_standalone",
    "run_workload",
    "attach",
    "DivergenceReport",
    "InvariantSink",
    "MetricsRegistry",
    "Campaign",
    "ExperimentSpec",
    "PolicyRef",
    "TopologyRef",
    "fairness",
    "fairness_improvement",
    "makespan_speedup",
    "speedup",
    "swap_count",
    "build_report",
    "compare_policies",
    "replicate",
    "CFSScheduler",
    "DIOScheduler",
    "OracleStaticScheduler",
    "RandomSwapScheduler",
    "StaticScheduler",
    "SuspensionScheduler",
    "MigrationModel",
    "RunResult",
    "SimulationEngine",
    "Topology",
    "homogeneous",
    "multi_socket",
    "xeon_e5_heterogeneous",
    "WorkloadSpec",
    "all_workloads",
    "random_workload",
    "workload",
    "workload_with_mix",
    "TrafficWorkload",
    "TrafficSpec",
    "JobTracker",
    "summarize_result",
    "__version__",
]
