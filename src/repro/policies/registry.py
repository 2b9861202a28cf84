"""The component registry: one resolution point for every name of a kind.

Policies and machines each have one shared registry instance —
:data:`repro.policies.REGISTRY` and
:data:`repro.topologies.TOPOLOGY_REGISTRY` — through which every layer
resolves names: the runner, the CLI's ``--policy`` / ``--topology``
arguments, the campaign planner, the benchmark suite and the invariant
checker.  Registering a component *once* makes it runnable, sweepable,
benchmarkable and (for policies) contract-checked everywhere.

Unknown names raise the registry's :class:`UnknownComponentError`
subclass (a ``ValueError``): a typo'd ``--policy`` or ``--topology``
fails loudly with the list of known names instead of silently running
something else.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterator, Mapping, TypeVar

from repro.policies.spec import ComponentSpec, PolicyFactory, PolicySpec
from repro.util.validation import require

__all__ = [
    "ComponentRegistry",
    "PolicyRegistry",
    "UnknownComponentError",
    "UnknownPolicyError",
]

S = TypeVar("S", bound=ComponentSpec)


class UnknownComponentError(ValueError):
    """Raised when a name resolves to nothing.

    Subclasses ``ValueError`` so call sites that catch bad user input
    (CLI exit-code mapping, campaign validation) keep working.  Each
    kind of component subclasses it with its ``kind`` word and plural.
    """

    kind = "component"
    plural = "components"

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown {self.kind} {name!r}; known {self.plural}: "
            f"{', '.join(known)}"
        )


class UnknownPolicyError(UnknownComponentError):
    """Raised when a policy name resolves to nothing."""

    kind = "policy"
    plural = "policies"


class ComponentRegistry(Generic[S]):
    """Ordered mapping of name -> spec for one kind of component.

    ``error`` is the :class:`UnknownComponentError` subclass that
    :meth:`get` raises; its ``kind`` word names the component in every
    message.
    """

    def __init__(self, error: type[UnknownComponentError]) -> None:
        self.error = error
        self._specs: dict[str, S] = {}
        self._aliases: dict[str, str] = {}

    # ---------------------------------------------------------- registration

    def register(self, spec: S) -> S:
        """Add ``spec``; names and aliases must be globally unique."""
        for name in (spec.name, *spec.aliases):
            require(
                name not in self._specs and name not in self._aliases,
                f"{self.error.kind} name {name!r} already registered",
            )
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    # -------------------------------------------------------------- lookup

    def get(self, name: str) -> S:
        """Resolve ``name`` (canonical or alias) or raise :attr:`error`."""
        canonical = self._aliases.get(name, name)
        spec = self._specs.get(canonical)
        if spec is None:
            raise self.error(name, self.names())
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self) -> Iterator[S]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> tuple[str, ...]:
        """Canonical names, in registration order."""
        return tuple(self._specs)

    def specs(self) -> tuple[S, ...]:
        return tuple(self._specs.values())

    def tagged(self, tag: str) -> tuple[S, ...]:
        """Specs carrying ``tag``, in registration order."""
        return tuple(s for s in self._specs.values() if tag in s.tags)

    # ------------------------------------------------------------- building

    def build(self, name: str, params: Mapping[str, Any] | None = None) -> Any:
        """Resolve ``name`` and build an instance with ``params``."""
        return self.get(name).build(params)

    def factory(
        self, name: str, params: Mapping[str, Any] | None = None
    ) -> Callable[[], Any]:
        """Resolve ``name`` to a validated zero-arg factory."""
        return self.get(name).from_params(params)


class PolicyRegistry(ComponentRegistry[PolicySpec]):
    """The policy registry: a :class:`ComponentRegistry` raising
    :class:`UnknownPolicyError`, plus the paper's standard factories."""

    def __init__(self) -> None:
        super().__init__(UnknownPolicyError)

    def standard_factories(self) -> dict[str, PolicyFactory]:
        """Default-parameter factories of the ``standard`` policies, in
        registration order."""
        return {s.name: s.from_params({}) for s in self.tagged("standard")}
