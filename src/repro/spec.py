"""The unified experiment specification layer.

One declarative, composable surface for "an experiment":

    ExperimentSpec = ⟨ policy name+params, topology name+params,
                       simulator overrides, workload/traffic ref ⟩

Every run — CLI verbs, campaign grids, traffic campaigns, the tuner —
describes work as an :class:`ExperimentSpec` (or something convertible
to one).  The spec has exactly **one validation path**: policy
parameters check against :data:`repro.policies.REGISTRY`'s declarative
`ParamSpec` schemas, topology parameters against
:data:`repro.topologies.TOPOLOGY_REGISTRY`, and simulator fields
through :class:`repro.campaign.SimParams` — validate-never-coerce, so
the values a caller supplies are the values that get hashed and run.

Serialization is **canonical and schema-versioned**
(:meth:`ExperimentSpec.to_dict` / :meth:`ExperimentSpec.from_dict`),
and the campaign cache key of a spec is *defined* as the cache key of
its legacy :class:`~repro.campaign.TaskSpec` image
(:meth:`ExperimentSpec.to_task`): every spec expressible before this
layer existed keeps its byte-identical content address, so historical
object stores stay warm.

`PolicyRef` / `TopologyRef` also own the CLI grammar
(``name[:key=value,...]``) via :meth:`PolicyRef.from_arg` — the same
parser the ``--policy`` and ``--topology`` flags use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping

from repro.campaign.spec import SimParams, TaskSpec, WorkloadRef
from repro.policies import REGISTRY, PolicySpec
from repro.topologies import TOPOLOGY_REGISTRY, TopologySpec, parse_topology_arg
from repro.util.rng import DEFAULT_SEED
from repro.util.validation import require
from repro.workloads.suite import WorkloadSpec

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "PolicyRef",
    "TopologyRef",
    "ExperimentSpec",
]

#: Version stamp of the :meth:`ExperimentSpec.to_dict` wire form.  Bump
#: only on a breaking change to the serialized layout; readers reject
#: unknown versions instead of guessing.
SPEC_SCHEMA_VERSION = 1


def _sorted_params(params: Mapping[str, Any] | Iterable[tuple[str, Any]] | None):
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted(items))


@dataclass(frozen=True)
class PolicyRef:
    """A policy by registry name plus a validated parameterisation.

    Parameters are validated against the policy's declarative
    `ParamSpec` schema at construction (unknown names raise
    ``UnknownPolicyError``, out-of-bounds values ``ValueError``) but
    stored **raw** — the campaign cache key hashes exactly the supplied
    values, never a coerced form.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        spec = REGISTRY.get(self.name)
        spec.validate_params(dict(self.params))
        object.__setattr__(self, "params", _sorted_params(self.params))

    @classmethod
    def of(cls, name: str, params: Mapping[str, Any] | None = None) -> "PolicyRef":
        return cls(name=name, params=_sorted_params(params))

    @classmethod
    def from_arg(cls, arg: str) -> "PolicyRef":
        """Parse the CLI grammar ``name[:key=value,...]``."""
        name, params = parse_topology_arg(arg)
        return cls.of(name, params)

    @property
    def spec(self) -> PolicySpec:
        return REGISTRY.get(self.name)

    def build(self):
        """Instantiate the (stateful) scheduler this ref describes."""
        return REGISTRY.build(self.name, dict(self.params))

    def with_params(self, **overrides: Any) -> "PolicyRef":
        """A new ref with ``overrides`` merged over the current params."""
        merged = dict(self.params)
        merged.update(overrides)
        return PolicyRef.of(self.name, merged)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": [[k, v] for k, v in self.params]}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PolicyRef":
        return cls.of(d["name"], {k: v for k, v in d.get("params", ())})

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{inner}"


@dataclass(frozen=True)
class TopologyRef:
    """A machine by topology-registry name plus a validated
    parameterisation (same contract as :class:`PolicyRef`)."""

    name: str = "heterogeneous"
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        spec = TOPOLOGY_REGISTRY.get(self.name)
        spec.validate_params(dict(self.params))
        object.__setattr__(self, "params", _sorted_params(self.params))

    @classmethod
    def of(cls, name: str, params: Mapping[str, Any] | None = None) -> "TopologyRef":
        return cls(name=name, params=_sorted_params(params))

    @classmethod
    def from_arg(cls, arg: str) -> "TopologyRef":
        """Parse the CLI grammar ``name[:key=value,...]``."""
        name, params = parse_topology_arg(arg)
        return cls.of(name, params)

    @property
    def spec(self) -> TopologySpec:
        return TOPOLOGY_REGISTRY.get(self.name)

    def build(self):
        return TOPOLOGY_REGISTRY.build(self.name, dict(self.params))

    def with_params(self, **overrides: Any) -> "TopologyRef":
        merged = dict(self.params)
        merged.update(overrides)
        return TopologyRef.of(self.name, merged)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": [[k, v] for k, v in self.params]}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TopologyRef":
        return cls.of(d["name"], {k: v for k, v in d.get("params", ())})

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{inner}"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully declaratively: who runs what, where, how.

    Composes a :class:`~repro.campaign.WorkloadRef` (closed suite
    workload or open-loop traffic trace by value), a :class:`PolicyRef`,
    a :class:`TopologyRef` and the flat simulator overrides that
    previously hid inside ``SimParams``.  Frozen, picklable, JSON-able;
    the tuner mutates specs through :meth:`with_policy_params` /
    ``dataclasses.replace``.
    """

    workload: WorkloadRef
    policy: PolicyRef
    topology: TopologyRef = TopologyRef()
    seed: int = DEFAULT_SEED
    work_scale: float = 1.0
    counter_noise: float = 0.06
    max_time_s: float = 36_000.0
    record_timeseries: bool = False
    migration: tuple[float, float, float] | None = None
    llc: str | None = None
    invariants: bool = False
    traffic: bool = False

    def __post_init__(self) -> None:
        # One validation path: policy/topology refs validated themselves;
        # the simulator fields validate by construction of the SimParams
        # image (llc backend name, topology/params compatibility) and the
        # scalar fields here, by value, never coerced.
        require(
            isinstance(self.seed, int)
            and not isinstance(self.seed, bool)
            and self.seed >= 0,
            f"seed must be an int >= 0, got {self.seed!r}",
        )
        for name, low in (
            ("work_scale", None), ("max_time_s", None), ("counter_noise", 0.0)
        ):
            value = getattr(self, name)
            require(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value)
                and (value > 0.0 if low is None else value >= low),
                f"{name} must be a finite number "
                f"{'> 0' if low is None else '>= 0'}, got {value!r}",
            )
        for name in ("record_timeseries", "invariants", "traffic"):
            value = getattr(self, name)
            require(
                isinstance(value, bool), f"{name} must be a bool, got {value!r}"
            )
        self.sim_params()
        if self.migration is not None:
            require(
                len(self.migration) == 3,
                "migration override is a (swap_overhead_s, warmup_work, "
                "warmup_miss_scale) triple",
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def for_workload(
        cls,
        spec: WorkloadSpec,
        policy: str | PolicyRef,
        seed: int = DEFAULT_SEED,
        policy_params: Mapping[str, Any] | None = None,
        sim: SimParams | None = None,
        invariants: bool = False,
    ) -> "ExperimentSpec":
        """The usual constructor: from a live closed-system `WorkloadSpec`.

        Accepts the same shape as the legacy ``TaskSpec.for_workload``
        (optional ``sim=SimParams(...)`` bundle) so migrated call sites
        stay one-line changes.
        """
        ref = policy if isinstance(policy, PolicyRef) else PolicyRef.of(policy, policy_params)
        if policy_params and isinstance(policy, PolicyRef):
            ref = ref.with_params(**dict(policy_params))
        return cls(
            workload=WorkloadRef.from_spec(spec),
            policy=ref,
            seed=seed,
            invariants=invariants,
            **cls._fields_from_sim(sim or SimParams()),
        )

    @classmethod
    def for_traffic(
        cls,
        workload,
        policy: str | PolicyRef,
        seed: int = DEFAULT_SEED,
        policy_params: Mapping[str, Any] | None = None,
        sim: SimParams | None = None,
        invariants: bool = False,
    ) -> "ExperimentSpec":
        """An open-loop spec from a live `repro.traffic.TrafficWorkload`."""
        ref = policy if isinstance(policy, PolicyRef) else PolicyRef.of(policy, policy_params)
        if policy_params and isinstance(policy, PolicyRef):
            ref = ref.with_params(**dict(policy_params))
        return cls(
            workload=WorkloadRef.from_traffic(workload),
            policy=ref,
            seed=seed,
            invariants=invariants,
            traffic=True,
            **cls._fields_from_sim(sim or SimParams()),
        )

    @staticmethod
    def _fields_from_sim(sim: SimParams) -> dict:
        return {
            "topology": TopologyRef.of(sim.topology, dict(sim.topology_params)),
            "work_scale": sim.work_scale,
            "counter_noise": sim.counter_noise,
            "max_time_s": sim.max_time_s,
            "record_timeseries": sim.record_timeseries,
            "migration": sim.migration,
            "llc": sim.llc,
        }

    # -- conversions ---------------------------------------------------

    def sim_params(self) -> SimParams:
        """The simulator-parameter bundle this spec's flat fields encode."""
        return SimParams(
            work_scale=self.work_scale,
            topology=self.topology.name,
            counter_noise=self.counter_noise,
            max_time_s=self.max_time_s,
            record_timeseries=self.record_timeseries,
            migration=self.migration,
            llc=self.llc,
            topology_params=self.topology.params,
        )

    def to_task(self) -> TaskSpec:
        """The legacy campaign `TaskSpec` image of this spec.

        This is the **cache-key-defining** conversion: the campaign
        layer hashes ``to_task().to_dict()``, so any spec expressible
        before the `ExperimentSpec` migration keeps its byte-identical
        content address.
        """
        return TaskSpec(
            workload=self.workload,
            policy=self.policy.name,
            seed=self.seed,
            policy_params=self.policy.params,
            sim=self.sim_params(),
            invariants=self.invariants,
            traffic=self.traffic,
        )

    @classmethod
    def from_task(cls, task: TaskSpec) -> "ExperimentSpec":
        """Lift a legacy `TaskSpec` into the composable form."""
        return cls(
            workload=task.workload,
            policy=PolicyRef(name=task.policy, params=task.policy_params),
            seed=task.seed,
            invariants=task.invariants,
            traffic=task.traffic,
            **cls._fields_from_sim(task.sim),
        )

    # -- mutation helpers (the tuner's surface) ------------------------

    def with_policy_params(self, **overrides: Any) -> "ExperimentSpec":
        """A new spec with ``overrides`` merged into the policy params."""
        return replace(self, policy=self.policy.with_params(**overrides))

    def with_seed(self, seed: int) -> "ExperimentSpec":
        return replace(self, seed=seed)

    def with_scale(self, work_scale: float) -> "ExperimentSpec":
        return replace(self, work_scale=work_scale)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Schema-versioned, round-trippable wire form.

        Distinct from the cache-key fingerprint (which stays the legacy
        ``TaskSpec`` canonical dict for address stability): this form is
        for artifacts — tuned-spec JSON, plans, reports.
        """
        out: dict[str, Any] = {
            "spec_version": SPEC_SCHEMA_VERSION,
            "workload": self.workload.to_dict(),
            "policy": self.policy.to_dict(),
            "topology": self.topology.to_dict(),
            "seed": self.seed,
            "work_scale": self.work_scale,
            "counter_noise": self.counter_noise,
            "max_time_s": self.max_time_s,
            "record_timeseries": self.record_timeseries,
            "migration": list(self.migration) if self.migration else None,
            "llc": self.llc,
            "invariants": self.invariants,
            "traffic": self.traffic,
        }
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExperimentSpec":
        """The spec of a :meth:`to_dict` document.

        Raises ``ValueError`` naming the key for a document that is not
        a mapping, or whose ``workload``, ``policy``, ``topology`` or
        ``seed`` is missing or ill-shaped.
        """
        require(
            isinstance(d, Mapping),
            f"an ExperimentSpec document is a mapping, got {type(d).__name__}",
        )
        version = d.get("spec_version")
        require(
            version == SPEC_SCHEMA_VERSION,
            f"unsupported ExperimentSpec schema version {version!r} "
            f"(this build reads version {SPEC_SCHEMA_VERSION})",
        )
        require("seed" in d, "ExperimentSpec document has no 'seed'")
        migration = d.get("migration")
        return cls(
            workload=_part(d, "workload", _workload_ref),
            policy=_part(d, "policy", PolicyRef.from_dict),
            topology=_part(d, "topology", TopologyRef.from_dict),
            seed=d["seed"],
            work_scale=d.get("work_scale", 1.0),
            counter_noise=d.get("counter_noise", 0.06),
            max_time_s=d.get("max_time_s", 36_000.0),
            record_timeseries=d.get("record_timeseries", False),
            migration=tuple(migration) if migration else None,
            llc=d.get("llc"),
            invariants=d.get("invariants", False),
            traffic=d.get("traffic", False),
        )

    # -- identity ------------------------------------------------------

    def cache_key(self) -> str:
        """The campaign content address of this spec (see `to_task`)."""
        from repro.campaign.cachekey import cache_key

        return cache_key(self.to_task())

    def label(self) -> str:
        """Short human-readable id (same form the campaign layer prints)."""
        return self.to_task().label()


def _workload_ref(wl: Mapping[str, Any]) -> WorkloadRef:
    return WorkloadRef(
        name=wl["name"],
        apps=tuple(wl["apps"]),
        include_kmeans=wl.get("include_kmeans", True),
        threads_per_app=wl.get("threads_per_app", 8),
        arrivals=tuple(wl.get("arrivals", ())),
        sizes=tuple(wl.get("sizes", ())),
    )


def _part(d: Mapping[str, Any], key: str, build: Callable[[Mapping], Any]):
    """``build(d[key])``; a missing, non-mapping or ill-shaped part raises
    ``ValueError`` naming ``key``."""
    part = d.get(key)
    require(
        isinstance(part, Mapping),
        f"ExperimentSpec {key!r} must be a mapping, got {type(part).__name__}",
    )
    try:
        return build(part)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"ExperimentSpec {key!r} is ill-shaped: {exc!r}") from None
