"""Declarative policy specifications.

A :class:`PolicySpec` is the single, complete description of one
scheduling policy: its canonical name, a one-line doc, a parameter schema
(:class:`ParamSpec` per tunable, with type/default/bounds), a
kwargs-accepting factory, and the policy's **invariant contract** — the
`repro.obs.invariants` rules every run of the policy must satisfy.

Everything downstream derives from the spec: the runner builds schedulers
through :meth:`PolicySpec.build`, campaign grids validate swept parameters
through :meth:`PolicySpec.from_params` before they reach a worker process,
``repro policies`` prints :meth:`PolicySpec.describe`, and
``InvariantSink.for_policy`` reads :attr:`PolicySpec.invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.schedulers.base import Scheduler
from repro.util.validation import is_finite_number, require

__all__ = ["ParamSpec", "PolicySpec", "PolicyFactory"]

#: A zero-arg callable producing a fresh, unprepared scheduler.
PolicyFactory = Callable[[], Scheduler]


@dataclass(frozen=True)
class ParamSpec:
    """Schema of one policy parameter.

    ``minimum``/``maximum`` are inclusive bounds (``exclusive_min=True``
    turns the lower bound strict, for positive-only floats); ``choices``
    enumerates the legal values outright; ``multiple_of`` constrains
    integer step (e.g. Dike's even ``swap_size``).  Bounds mirror the
    policy's own constructor validation exactly, so any value the
    constructor accepts passes the schema and vice versa — the schema
    exists to reject bad values *early*, at campaign-planning time, with
    the parameter's name and legal range in the message.
    """

    name: str
    type: type
    default: Any
    doc: str = ""
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False
    choices: tuple[Any, ...] | None = None
    nullable: bool = False
    multiple_of: int | None = None

    def validate(self, value: Any) -> Any:
        """Return ``value`` if it satisfies this schema, else raise."""
        if value is None:
            if self.nullable:
                return None
            raise ValueError(f"parameter {self.name!r} may not be None")
        if self.type is bool:
            if not isinstance(value, bool):
                raise ValueError(
                    f"parameter {self.name!r} must be a bool, got {value!r}"
                )
        elif self.type is int:
            # bool is an int subclass; an accidental True here is a bug.
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"parameter {self.name!r} must be an int, got {value!r}"
                )
        elif self.type is float:
            if not is_finite_number(value):
                raise ValueError(
                    f"parameter {self.name!r} must be a finite number, "
                    f"got {value!r}"
                )
        elif not isinstance(value, self.type):
            raise ValueError(
                f"parameter {self.name!r} must be {self.type.__name__}, "
                f"got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"parameter {self.name!r} must be one of {self.choices}, "
                f"got {value!r}"
            )
        if self.minimum is not None:
            if self.exclusive_min:
                if value <= self.minimum:
                    raise ValueError(
                        f"parameter {self.name!r} must be > {self.minimum}, "
                        f"got {value!r}"
                    )
            elif value < self.minimum:
                raise ValueError(
                    f"parameter {self.name!r} must be >= {self.minimum}, "
                    f"got {value!r}"
                )
        if self.maximum is not None and value > self.maximum:
            raise ValueError(
                f"parameter {self.name!r} must be <= {self.maximum}, "
                f"got {value!r}"
            )
        if self.multiple_of is not None and value % self.multiple_of != 0:
            raise ValueError(
                f"parameter {self.name!r} must be a multiple of "
                f"{self.multiple_of}, got {value!r}"
            )
        return value

    def describe(self) -> dict[str, Any]:
        info: dict[str, Any] = {
            "name": self.name,
            "type": self.type.__name__,
            "default": self.default,
        }
        if self.doc:
            info["doc"] = self.doc
        if self.minimum is not None:
            info["minimum"] = self.minimum
            if self.exclusive_min:
                info["exclusive_min"] = True
        if self.maximum is not None:
            info["maximum"] = self.maximum
        if self.choices is not None:
            info["choices"] = list(self.choices)
        if self.nullable:
            info["nullable"] = True
        if self.multiple_of is not None:
            info["multiple_of"] = self.multiple_of
        return info


@dataclass(frozen=True)
class PolicySpec:
    """Complete declarative description of one scheduling policy."""

    #: Canonical policy name (the ``--policy`` / cache-key identifier).
    name: str
    #: One-line human description.
    doc: str
    #: Kwargs-accepting factory; keyword names follow :attr:`params`.
    factory: Callable[..., Scheduler]
    #: Parameter schema, in display order.
    params: tuple[ParamSpec, ...] = ()
    #: The `repro.obs.invariants` rule names every run must satisfy.
    invariants: tuple[str, ...] = ()
    #: Alternative names resolving to this spec (e.g. a scheduler's
    #: internal ``Scheduler.name`` when it differs from the policy name).
    aliases: tuple[str, ...] = ()
    #: Free-form labels; ``"standard"`` marks the five paper policies.
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require(bool(self.name), "policy name must be non-empty")
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
                f"unknown parameter(s) {unknown} for policy {self.name!r}; "
                f"known: {sorted(schema)}"
            )
        return {k: schema[k].validate(v) for k, v in params.items()}

    def defaults(self) -> dict[str, Any]:
        return {p.name: p.default for p in self.params}

    # ------------------------------------------------------------ building

    def from_params(self, params: Mapping[str, Any] | None = None) -> PolicyFactory:
        """A validated zero-arg factory with ``params`` bound.

        This is what campaign workers and the runner hold: validation
        happens *here*, once, in the planning process — the returned
        factory cannot fail on bad parameters later in a worker.
        """
        validated = self.validate_params(params or {})

        def build() -> Scheduler:
            return self.factory(**validated)

        build.policy_name = self.name  # type: ignore[attr-defined]
        build.policy_params = dict(validated)  # type: ignore[attr-defined]
        return build

    def build(self, params: Mapping[str, Any] | None = None) -> Scheduler:
        """Build a fresh scheduler instance (validates ``params``)."""
        return self.from_params(params)()

    # ---------------------------------------------------------- description

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (the ``repro policies`` payload)."""
        return {
            "name": self.name,
            "doc": self.doc,
            "aliases": list(self.aliases),
            "tags": list(self.tags),
            "invariants": list(self.invariants),
            "params": [p.describe() for p in self.params],
        }
