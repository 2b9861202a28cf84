"""Unified policy framework: registry, declarative specs, stage pipelines.

One import gives every layer the same view of what a policy *is*::

    from repro.policies import REGISTRY

    scheduler = REGISTRY.build("dike-af", {"fairness_threshold": 0.2})
    factory   = REGISTRY.factory("dio")          # validated, zero-arg
    contract  = REGISTRY.get("dike").invariants  # invariant rule names
    names     = REGISTRY.names()                 # all registered policies

The spec and registry classes are the shared component machinery that
`repro.topologies` builds its machine registry from.  See
`docs/policies.md` for the registry/stage-pipeline architecture and how
to add a policy.
"""

from repro.policies.builtin import REGISTRY
from repro.policies.registry import ComponentRegistry, PolicyRegistry, UnknownPolicyError
from repro.policies.spec import ComponentSpec, ParamSpec, PolicyFactory, PolicySpec

__all__ = [
    "REGISTRY",
    "ComponentRegistry",
    "ComponentSpec",
    "PolicyRegistry",
    "PolicySpec",
    "ParamSpec",
    "PolicyFactory",
    "UnknownPolicyError",
]
