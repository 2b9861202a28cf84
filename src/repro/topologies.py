"""Declarative topology specifications and the topology registry.

A :class:`TopologySpec` mirrors :class:`repro.policies.PolicySpec` for
machines instead of schedulers: canonical name, one-line doc, a
:class:`~repro.policies.spec.ParamSpec` schema with bounds, a
kwargs-accepting factory returning a :class:`~repro.sim.topology.Topology`,
and aliases.  The shared :data:`TOPOLOGY_REGISTRY` instance is the single
resolution point for every topology name in the repo — ``--topology`` on
the run/trace/campaign/traffic/bench verbs, campaign cache keys, and
the large-machine presets the hierarchical policies target.

The classic keyword factories (:func:`~repro.sim.topology.xeon_e5_heterogeneous`,
:func:`~repro.sim.topology.homogeneous`) remain public and are what the
registry entries call; only the *name table* moved here.  Unknown names
raise :class:`UnknownTopologyError` (a ``ValueError``) listing the known
names, so a typo'd ``--topology`` fails loudly at planning time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.policies.spec import ParamSpec
from repro.sim.topology import (
    Topology,
    homogeneous,
    multi_socket,
    xeon_e5_heterogeneous,
)
from repro.util.validation import require

__all__ = [
    "TopologySpec",
    "TopologyRegistry",
    "TopologyFactory",
    "UnknownTopologyError",
    "TOPOLOGY_REGISTRY",
    "parse_param_value",
    "parse_topology_arg",
]

#: A zero-arg callable producing a fresh topology.
TopologyFactory = Callable[[], Topology]


class UnknownTopologyError(ValueError):
    """Raised when a topology name resolves to nothing.

    Subclasses ``ValueError`` so call sites that catch bad user input
    (CLI exit-code mapping, campaign validation) keep working.
    """

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown topology {name!r}; known topologies: {', '.join(known)}"
        )


@dataclass(frozen=True)
class TopologySpec:
    """Complete declarative description of one machine preset."""

    #: Canonical topology name (the ``--topology`` / cache-key identifier).
    name: str
    #: One-line human description.
    doc: str
    #: Kwargs-accepting factory; keyword names follow :attr:`params`.
    factory: Callable[..., Topology]
    #: Parameter schema, in display order.
    params: tuple[ParamSpec, ...] = ()
    #: Alternative names resolving to this spec (e.g. the classic factory
    #: function's name when it differs from the registry name).
    aliases: tuple[str, ...] = ()
    #: Free-form labels; ``"paper"`` marks the published testbed,
    #: ``"scale"`` the large hierarchical-scheduling presets.
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require(bool(self.name), "topology name must be non-empty")
        seen = set()
        for p in self.params:
            require(p.name not in seen, f"duplicate parameter {p.name!r}")
            seen.add(p.name)

    # ------------------------------------------------------------- params

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Check ``params`` against the schema; return them as a dict.

        Values are checked, never coerced — campaign cache keys hash the
        caller's raw values, so validation must not rewrite them.
        Unknown keys and out-of-bounds values raise ``ValueError``.
        """
        schema = {p.name: p for p in self.params}
        unknown = sorted(set(params) - set(schema))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for topology {self.name!r}; "
                f"known: {sorted(schema)}"
            )
        return {k: schema[k].validate(v) for k, v in params.items()}

    def defaults(self) -> dict[str, Any]:
        return {p.name: p.default for p in self.params}

    # ------------------------------------------------------------ building

    def from_params(self, params: Mapping[str, Any] | None = None) -> TopologyFactory:
        """A validated zero-arg factory with ``params`` bound.

        Validation happens *here*, once, in the planning process — the
        returned factory cannot fail on bad parameters later in a worker.
        """
        validated = self.validate_params(params or {})

        def build() -> Topology:
            return self.factory(**validated)

        build.topology_name = self.name  # type: ignore[attr-defined]
        build.topology_params = dict(validated)  # type: ignore[attr-defined]
        return build

    def build(self, params: Mapping[str, Any] | None = None) -> Topology:
        """Build a fresh topology instance (validates ``params``)."""
        return self.from_params(params)()

    # ---------------------------------------------------------- description

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (the ``repro topologies`` payload)."""
        built = self.build()
        return {
            "name": self.name,
            "doc": self.doc,
            "aliases": list(self.aliases),
            "tags": list(self.tags),
            "n_sockets": built.n_sockets,
            "n_vcores": built.n_vcores,
            "heterogeneous": built.is_heterogeneous,
            "params": [p.describe() for p in self.params],
        }


class TopologyRegistry:
    """Ordered mapping of topology name -> :class:`TopologySpec`."""

    def __init__(self) -> None:
        self._specs: dict[str, TopologySpec] = {}
        self._aliases: dict[str, str] = {}

    # ---------------------------------------------------------- registration

    def register(self, spec: TopologySpec) -> TopologySpec:
        """Add ``spec``; names and aliases must be globally unique."""
        for name in (spec.name, *spec.aliases):
            require(
                name not in self._specs and name not in self._aliases,
                f"topology name {name!r} already registered",
            )
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    # -------------------------------------------------------------- lookup

    def get(self, name: str) -> TopologySpec:
        """Resolve ``name`` (canonical or alias) or raise
        :class:`UnknownTopologyError`."""
        canonical = self._aliases.get(name, name)
        spec = self._specs.get(canonical)
        if spec is None:
            raise UnknownTopologyError(name, self.names())
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self) -> Iterator[TopologySpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> tuple[str, ...]:
        """Canonical topology names, in registration order."""
        return tuple(self._specs)

    def specs(self) -> tuple[TopologySpec, ...]:
        return tuple(self._specs.values())

    def tagged(self, tag: str) -> tuple[TopologySpec, ...]:
        """Specs carrying ``tag``, in registration order."""
        return tuple(s for s in self._specs.values() if tag in s.tags)

    # ------------------------------------------------------------- building

    def build(self, name: str, params: Mapping[str, Any] | None = None) -> Topology:
        """Resolve ``name`` and build a topology with ``params``."""
        return self.get(name).build(params)

    def factory(
        self, name: str, params: Mapping[str, Any] | None = None
    ) -> TopologyFactory:
        """Resolve ``name`` to a validated zero-arg factory."""
        return self.get(name).from_params(params)


# --------------------------------------------------------------------------
# CLI argument parsing


def parse_param_value(raw: str) -> Any:
    """``"4"`` -> 4, ``"2.33"`` -> 2.33, ``"true"``/``"TRUE"`` -> True,
    else the stripped string.

    The one value parser of the CLI: ``name:key=value`` refs and
    campaign ``--param`` cells both call it.
    """
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def parse_topology_arg(arg: str) -> tuple[str, dict[str, Any]]:
    """Parse ``name[:param=value,...]`` into ``(name, params)``.

    Values are parsed by :func:`parse_param_value` (int -> float -> bool
    -> str), as campaign ``--param`` cells are.  Validation against the
    spec's schema is the caller's job (via
    :meth:`TopologySpec.from_params`), so errors carry the parameter's
    name and legal range.
    """
    name, sep, rest = arg.partition(":")
    name = name.strip()
    require(bool(name), f"empty name in {arg!r}")
    params: dict[str, Any] = {}
    if sep:
        for item in rest.split(","):
            key, eq, raw = item.partition("=")
            key = key.strip()
            require(
                bool(eq) and bool(key),
                f"malformed parameter {item!r} in {arg!r} "
                "(expected key=value)",
            )
            params[key] = parse_param_value(raw)
    return name, params


# --------------------------------------------------------------------------
# Built-in presets

TOPOLOGY_REGISTRY = TopologyRegistry()


def _ghz(name: str, default: float, doc: str) -> ParamSpec:
    return ParamSpec(name, float, default, doc, minimum=0.0, exclusive_min=True)


def _gbps(name: str, default: float, doc: str) -> ParamSpec:
    return ParamSpec(name, float, default, doc, minimum=0.0, exclusive_min=True)


_SMT = ParamSpec("smt", int, 2, "hardware threads per physical core", choices=(1, 2, 4))


TOPOLOGY_REGISTRY.register(
    TopologySpec(
        name="heterogeneous",
        doc="The paper's Table I machine: 2 sockets x 10 cores x SMT2, "
        "one fast (2.33 GHz) + one slow (1.21 GHz) = 40 vcores.",
        factory=xeon_e5_heterogeneous,
        params=(
            _ghz("fast_ghz", 2.33, "fast-socket clock"),
            _ghz("slow_ghz", 1.21, "slow-socket clock"),
            ParamSpec("cores_per_socket", int, 10, "physical cores per socket", minimum=1),
            _SMT,
            _gbps("memory_controller_gbps", 34.0, "shared controller bandwidth"),
            _gbps("fast_interconnect_gbps", 24.0, "fast-socket link to the controller"),
            _gbps("slow_interconnect_gbps", 6.0, "slow-socket link to the controller"),
        ),
        aliases=("xeon_e5_heterogeneous",),
        tags=("paper",),
    )
)

TOPOLOGY_REGISTRY.register(
    TopologySpec(
        name="homogeneous",
        doc="A homogeneous machine (Figure 1's comparison baseline); "
        "2 sockets x 10 cores x SMT2 at one frequency = 40 vcores.",
        factory=homogeneous,
        params=(
            _ghz("freq_ghz", 2.33, "clock of every core"),
            ParamSpec("n_sockets", int, 2, "socket count", minimum=1),
            ParamSpec("cores_per_socket", int, 10, "physical cores per socket", minimum=1),
            _SMT,
            _gbps("memory_controller_gbps", 34.0, "shared controller bandwidth"),
            _gbps("interconnect_gbps", 20.0, "per-socket link to the controller"),
        ),
        tags=("paper",),
    )
)

_MULTI_PARAMS = (
    ParamSpec("n_sockets", int, 4, "socket count", minimum=1),
    ParamSpec("cores_per_socket", int, 16, "physical cores per socket", minimum=1),
    _SMT,
    _ghz("max_ghz", 2.33, "fastest frequency domain"),
    _ghz("min_ghz", 1.21, "slowest frequency domain"),
    ParamSpec(
        "n_freq_domains",
        int,
        0,
        "distinct frequency domains (0 = one per socket)",
        minimum=0,
    ),
    _gbps("memory_controller_gbps_per_socket", 17.0, "controller bandwidth per socket"),
    _gbps("fast_interconnect_gbps", 24.0, "fastest-domain link bandwidth"),
    _gbps("slow_interconnect_gbps", 6.0, "slowest-domain link bandwidth"),
)

TOPOLOGY_REGISTRY.register(
    TopologySpec(
        name="multi-socket",
        doc="Parametric N-socket machine with per-socket frequency domains "
        "(defaults: 4 sockets x 16 cores x SMT2 = 128 vcores).",
        factory=multi_socket,
        params=_MULTI_PARAMS,
        tags=("scale",),
    )
)


def _scale_preset(name: str, n_sockets: int, n_freq_domains: int, doc: str) -> None:
    def factory(**kwargs: Any) -> Topology:
        return multi_socket(
            n_sockets=n_sockets, n_freq_domains=n_freq_domains, **kwargs
        )

    TOPOLOGY_REGISTRY.register(
        TopologySpec(
            name=name,
            doc=doc,
            factory=factory,
            params=(
                ParamSpec(
                    "cores_per_socket", int, 16, "physical cores per socket", minimum=1
                ),
                _SMT,
            ),
            tags=("scale",),
        )
    )


_scale_preset(
    "scale128",
    n_sockets=4,
    n_freq_domains=2,
    doc="128-vcore machine: 4 sockets x 16 cores x SMT2, 2 frequency domains.",
)
_scale_preset(
    "scale256",
    n_sockets=8,
    n_freq_domains=4,
    doc="256-vcore machine: 8 sockets x 16 cores x SMT2, 4 frequency domains.",
)
_scale_preset(
    "scale512",
    n_sockets=16,
    n_freq_domains=4,
    doc="512-vcore machine: 16 sockets x 16 cores x SMT2, 4 frequency domains.",
)
_scale_preset(
    "scale1024",
    n_sockets=32,
    n_freq_domains=8,
    doc="1024-vcore machine: 32 sockets x 16 cores x SMT2, 8 frequency domains.",
)
