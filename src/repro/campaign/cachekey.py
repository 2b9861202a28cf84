"""Content-addressed cache keys for experiment specs.

The key is a SHA-256 over the canonical JSON of a spec's value —
workload recipe, policy + parameters, seed, simulator parameters — plus
the result-schema version (`SCHEMA_VERSION`): simulations are
deterministic functions of exactly these inputs, so two specs with equal
keys produce bitwise-identical results and may share one cached artifact.

This module is the one place that knows what a key hashes.  The hashed
dict (:func:`task_fingerprint`) keeps the layout cache keys have always
had — the simulator fields nested under ``"sim"``, policy parameters as
``[key, value]`` pairs — so object stores written by any earlier
revision stay addressable.

Stability notes:

* ``json.dumps(..., sort_keys=True)`` with explicit separators is the
  canonical form; Python's shortest-repr float formatting is itself
  deterministic, so float parameters serialise stably.
* Optional fields (``llc``, ``topology_params``, ``invariants``,
  ``traffic`` and the workload's ``arrivals``/``sizes``) are present
  only when set, so specs that predate them keep their keys.
* The schema version is hashed **into** the key (not just stored next to
  the artifact) so a version bump orphans old entries outright — a cache
  directory can safely outlive many code revisions.
* ``record_timeseries`` is excluded: it toggles trace *recording* only
  (never simulation dynamics) and traces are not cached, so both variants
  of a spec share one artifact.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.experiments.serialization import SCHEMA_VERSION

if TYPE_CHECKING:
    from repro.spec import ExperimentSpec

__all__ = ["task_fingerprint", "cache_key"]


def task_fingerprint(spec: ExperimentSpec) -> dict:
    """The exact dict whose canonical JSON is hashed."""
    sim = {
        "work_scale": spec.work_scale,
        "topology": spec.topology.name,
        "counter_noise": spec.counter_noise,
        "max_time_s": spec.max_time_s,
        "migration": list(spec.migration) if spec.migration else None,
    }
    if spec.llc is not None:
        sim["llc"] = spec.llc
    if spec.topology.params:
        sim["topology_params"] = [[k, v] for k, v in spec.topology.params]
    out = {
        "workload": spec.workload.to_dict(),
        "policy": spec.policy.name,
        "policy_params": [[k, v] for k, v in spec.policy.params],
        "seed": spec.seed,
        "sim": sim,
        "schema_version": SCHEMA_VERSION,
    }
    if spec.invariants:
        out["invariants"] = True
    if spec.traffic:
        out["traffic"] = True
    return out


def cache_key(spec: ExperimentSpec) -> str:
    """Stable hex digest identifying a spec's result."""
    canonical = json.dumps(
        task_fingerprint(spec),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
