"""Declarative topology specifications and the topology registry.

Machines are the second kind of named, parameterised component beside
policies: a :class:`TopologySpec` is a
:class:`~repro.policies.spec.ComponentSpec` whose factory returns a
:class:`~repro.sim.topology.Topology`, and :data:`TOPOLOGY_REGISTRY` is a
:class:`~repro.policies.registry.ComponentRegistry`, the single
resolution point for every topology name in the repo — ``--topology`` on
the run/trace/campaign/traffic/bench verbs, campaign cache keys, and the
large-machine presets the hierarchical policies target.

The classic keyword factories (:func:`~repro.sim.topology.xeon_e5_heterogeneous`,
:func:`~repro.sim.topology.homogeneous`) remain public and are what the
registry entries call; only the *name table* lives here.  Unknown names
raise :class:`UnknownTopologyError` (a ``ValueError``) listing the known
names, so a typo'd ``--topology`` fails loudly at planning time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from repro.policies.registry import ComponentRegistry, UnknownComponentError
from repro.policies.spec import ComponentSpec, ParamSpec
from repro.sim.topology import (
    Topology,
    homogeneous,
    multi_socket,
    xeon_e5_heterogeneous,
)
from repro.util.validation import require

__all__ = [
    "TopologySpec",
    "UnknownTopologyError",
    "TOPOLOGY_REGISTRY",
    "parse_param_value",
    "parse_topology_arg",
]


class UnknownTopologyError(UnknownComponentError):
    """Raised when a topology name resolves to nothing."""

    kind = "topology"
    plural = "topologies"


@dataclass(frozen=True)
class TopologySpec(ComponentSpec):
    """Complete declarative description of one machine preset."""

    kind: ClassVar[str] = "topology"

    def describe(self) -> dict[str, Any]:
        built = self.build()
        return {
            **super().describe(),
            "n_sockets": built.n_sockets,
            "n_vcores": built.n_vcores,
            "heterogeneous": built.is_heterogeneous,
        }


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
    -> str), as campaign ``--param`` cells are.  A key given twice
    raises ``ValueError`` naming it.  Validation against the spec's
    schema is the caller's job (via
    :meth:`~repro.policies.spec.ComponentSpec.from_params`), so errors
    carry the parameter's name and legal range.
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
            require(
                key not in params,
                f"parameter {key!r} given more than once in {arg!r}",
            )
            params[key] = parse_param_value(raw)
    return name, params


# --------------------------------------------------------------------------
# Built-in presets

TOPOLOGY_REGISTRY: ComponentRegistry[TopologySpec] = ComponentRegistry(
    UnknownTopologyError
)


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
