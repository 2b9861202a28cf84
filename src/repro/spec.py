"""The unified experiment specification layer.

One declarative, composable surface for "an experiment":

    ExperimentSpec = ⟨ policy name+params, topology name+params,
                       simulator overrides, workload/traffic ref ⟩

Every run — CLI verbs, campaign grids, traffic campaigns, the tuner —
describes work as an :class:`ExperimentSpec`, and the campaign layer
plans, hashes, batches and executes specs directly.  The spec has
exactly **one validation path**, run at construction: policy
parameters check against :data:`repro.policies.REGISTRY`'s declarative
`ParamSpec` schemas, topology parameters against
:data:`repro.topologies.TOPOLOGY_REGISTRY`, the workload against the
rules its worker would apply (:class:`repro.campaign.WorkloadRef`) and
the simulator fields by value — validate-never-coerce, so the values a
caller supplies are the values that get hashed and run.

Serialization is **canonical and schema-versioned**
(:meth:`ExperimentSpec.to_dict` / :meth:`ExperimentSpec.from_dict`).
The campaign cache key hashes a different, older layout that
`repro.campaign.cachekey` alone builds, so historical object stores
stay warm.

`PolicyRef` / `TopologyRef` are the two kinds of :class:`ComponentRef`,
which also owns the CLI grammar (``name[:key=value,...]``) via
:meth:`ComponentRef.from_arg` — the same parser the ``--policy`` and
``--topology`` flags use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, Iterable, Mapping, TypeVar

from repro.campaign.spec import SimParams, WorkloadRef
from repro.policies import REGISTRY, ComponentRegistry, ComponentSpec
from repro.sim.migration import MigrationModel
from repro.topologies import TOPOLOGY_REGISTRY, parse_topology_arg
from repro.util.rng import DEFAULT_SEED
from repro.util.validation import is_finite_number, require
from repro.workloads.suite import WorkloadSpec

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "ComponentRef",
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


_R = TypeVar("_R", bound="ComponentRef")


@dataclass(frozen=True)
class ComponentRef:
    """A component by registry name plus a validated parameterisation.

    Parameters are validated against the component's declarative
    `ParamSpec` schema at construction (unknown names raise the
    registry's ``UnknownComponentError``, out-of-bounds values
    ``ValueError``) but stored **raw** — the campaign cache key hashes
    exactly the supplied values, never a coerced form.  Subclasses name
    their :attr:`registry`.
    """

    registry: ClassVar[ComponentRegistry]

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        self.spec.validate_params(dict(self.params))
        object.__setattr__(self, "params", _sorted_params(self.params))

    @classmethod
    def of(cls: type[_R], name: str, params: Mapping[str, Any] | None = None) -> _R:
        return cls(name=name, params=_sorted_params(params))

    @classmethod
    def from_arg(cls: type[_R], arg: str) -> _R:
        """Parse the CLI grammar ``name[:key=value,...]``."""
        name, params = parse_topology_arg(arg)
        return cls.of(name, params)

    @property
    def spec(self) -> ComponentSpec:
        return self.registry.get(self.name)

    def build(self):
        """Instantiate the component this ref describes (a fresh,
        stateful scheduler for a policy)."""
        return self.registry.build(self.name, dict(self.params))

    def with_params(self: _R, **overrides: Any) -> _R:
        """A new ref with ``overrides`` merged over the current params."""
        merged = dict(self.params)
        merged.update(overrides)
        return type(self).of(self.name, merged)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": [[k, v] for k, v in self.params]}

    @classmethod
    def from_dict(cls: type[_R], d: Mapping[str, Any]) -> _R:
        return cls.of(d["name"], {k: v for k, v in d.get("params", ())})

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{inner}"


@dataclass(frozen=True)
class PolicyRef(ComponentRef):
    """A policy by `repro.policies.REGISTRY` name plus its parameters."""

    registry: ClassVar[ComponentRegistry] = REGISTRY


@dataclass(frozen=True)
class TopologyRef(ComponentRef):
    """A machine by `repro.topologies.TOPOLOGY_REGISTRY` name plus its
    parameters; the paper's ``heterogeneous`` machine by default."""

    registry: ClassVar[ComponentRegistry] = TOPOLOGY_REGISTRY

    name: str = "heterogeneous"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully declaratively: who runs what, where, how.

    Composes a :class:`~repro.campaign.WorkloadRef` (closed suite
    workload or open-loop traffic trace by value), a :class:`PolicyRef`,
    a :class:`TopologyRef` and the flat simulator fields.  Frozen,
    picklable, JSON-able; the tuner mutates specs through
    :meth:`with_policy_params` / ``dataclasses.replace``.

    ``invariants=True`` makes the worker check the policy's invariant
    contract for the whole run and stamp its digest into
    ``RunResult.info["invariants"]``; ``traffic=True`` makes it stamp
    the open-loop p50/p95/p99 job-slowdown summary into
    ``RunResult.info["traffic"]``.  Both are part of the cache key.
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
        # One validation path: policy/topology refs and the workload ref
        # validated themselves; the simulator fields validate here, by
        # value, never coerced.
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
                is_finite_number(value)
                and (value > 0.0 if low is None else value >= low),
                f"{name} must be a finite number "
                f"{'> 0' if low is None else '>= 0'}, got {value!r}",
            )
        for name in ("record_timeseries", "invariants", "traffic"):
            value = getattr(self, name)
            require(
                isinstance(value, bool), f"{name} must be a bool, got {value!r}"
            )
        if self.llc is not None:
            from repro.sim.llc import LLC_MODELS

            require(
                isinstance(self.llc, str) and self.llc in LLC_MODELS,
                f"unknown llc model {self.llc!r}; known: {sorted(LLC_MODELS)}",
            )
        if self.migration is not None:
            require(
                isinstance(self.migration, tuple)
                and len(self.migration) == 3
                and all(is_finite_number(v) for v in self.migration),
                "migration override is a (swap_overhead_s, warmup_work, "
                f"warmup_miss_scale) triple of finite numbers, got "
                f"{self.migration!r}",
            )
            try:
                MigrationModel(*self.migration)
            except ValueError as exc:
                raise ValueError(f"migration override is invalid: {exc}") from None

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
        """The usual constructor: from a live closed-system `WorkloadSpec`
        and an optional ``sim=SimParams(...)`` bundle of simulator fields."""
        return cls._build(
            WorkloadRef.from_spec(spec), policy, seed, policy_params, sim,
            invariants,
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
        return cls._build(
            WorkloadRef.from_traffic(workload), policy, seed, policy_params,
            sim, invariants, traffic=True,
        )

    @classmethod
    def _build(
        cls,
        workload: WorkloadRef,
        policy: str | PolicyRef,
        seed: int,
        policy_params: Mapping[str, Any] | None,
        sim: SimParams | None,
        invariants: bool,
        traffic: bool = False,
    ) -> "ExperimentSpec":
        ref = policy if isinstance(policy, PolicyRef) else PolicyRef.of(policy, policy_params)
        if policy_params and isinstance(policy, PolicyRef):
            ref = ref.with_params(**dict(policy_params))
        sim = sim or SimParams()
        return cls(
            workload=workload,
            policy=ref,
            topology=TopologyRef.of(sim.topology, dict(sim.topology_params)),
            seed=seed,
            work_scale=sim.work_scale,
            counter_noise=sim.counter_noise,
            max_time_s=sim.max_time_s,
            record_timeseries=sim.record_timeseries,
            migration=sim.migration,
            llc=sim.llc,
            invariants=invariants,
            traffic=traffic,
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

        Distinct from the cache-key fingerprint (which keeps the older
        layout of `repro.campaign.cachekey` for address stability): this
        form is for artifacts — tuned-spec JSON, plans, reports.
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
        a mapping, whose ``workload``, ``policy``, ``topology`` or
        ``seed`` is missing or ill-shaped, or whose field fails the
        spec's construction rules.
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
        require(
            migration is None or isinstance(migration, (list, tuple)),
            f"ExperimentSpec 'migration' must be null or a list, got {migration!r}",
        )
        return cls(
            workload=_part(d, "workload", _workload_ref),
            policy=_part(d, "policy", PolicyRef.from_dict),
            topology=_part(d, "topology", TopologyRef.from_dict),
            seed=d["seed"],
            work_scale=d.get("work_scale", 1.0),
            counter_noise=d.get("counter_noise", 0.06),
            max_time_s=d.get("max_time_s", 36_000.0),
            record_timeseries=d.get("record_timeseries", False),
            migration=None if migration is None else tuple(migration),
            llc=d.get("llc"),
            invariants=d.get("invariants", False),
            traffic=d.get("traffic", False),
        )

    # -- identity ------------------------------------------------------

    def cache_key(self) -> str:
        """The campaign content address of this spec."""
        from repro.campaign.cachekey import cache_key

        return cache_key(self)

    def label(self) -> str:
        """Short human-readable id for telemetry lines and the store index."""
        extra = ""
        if self.policy.params:
            extra = "{" + ",".join(f"{k}={v}" for k, v in self.policy.params) + "}"
        return f"{self.workload.name}/{self.policy.name}{extra}@s{self.seed}"


def _workload_ref(wl: Mapping[str, Any]) -> WorkloadRef:
    for key in ("apps", "arrivals", "sizes"):
        require(
            isinstance(wl.get(key, ()), (list, tuple)),
            f"workload {key!r} must be a list, got {wl.get(key)!r}",
        )
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
