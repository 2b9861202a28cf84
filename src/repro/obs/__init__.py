"""Observability: structured event tracing, metrics, runtime invariants.

The simulator and the Dike pipeline emit typed, schema-versioned events
(`repro.obs.events`) through an :class:`~repro.obs.events.EventBus` to
pluggable sinks (`repro.obs.sinks`): a JSONL file, a bounded in-memory
ring buffer, a Chrome/Perfetto ``trace_event`` exporter, and a runtime
invariant checker (`repro.obs.invariants`) that validates the paper's
scheduling rules per quantum.  `repro.obs.metrics` is a process-local
registry of counters/gauges/histograms snapshotted into ``RunResult``;
`repro.obs.diff` aligns two JSONL traces quantum-by-quantum (LCS over
quantum groups) and distills the differences into a structured
:class:`~repro.obs.diff.DivergenceReport`.

Attachment is one call — :func:`repro.obs.attach` wires any combination
of sinks onto an engine, a bare bus, or a campaign and returns a handle
over everything attached (`repro.obs.attach`).

With no sinks attached the bus is a cheap no-op — emission sites guard on
``bus.enabled`` and never build event objects, so a plain ``repro run``
pays nothing for the instrumentation.
"""

from repro.obs.attach import Attachment, attach, run_info_telemetry
from repro.obs.diff import DivergenceReport, SchemaMismatch, analyze_traces

from repro.obs.events import (
    SCHEMA_VERSION,
    ArrivalPlaced,
    CacheClusterFormed,
    CacheShareUpdated,
    ClassificationChanged,
    ClusterAssigned,
    Event,
    EventBus,
    FairnessComputed,
    NULL_BUS,
    ObserverSample,
    OptimizerStep,
    PairProposed,
    PairVetoed,
    ProfitEvaluated,
    QuantumEnd,
    QuantumStart,
    RebalanceExecuted,
    SwapExecuted,
    event_from_dict,
    validate_event_dict,
)
from repro.obs.invariants import (
    RULES,
    InvariantError,
    InvariantSink,
    InvariantViolation,
)
from repro.obs.metrics import MetricsRegistry, timed
from repro.obs.sinks import ChromeTraceSink, JsonlSink, KindTallySink, RingBufferSink

__all__ = [
    "attach",
    "Attachment",
    "run_info_telemetry",
    "DivergenceReport",
    "SchemaMismatch",
    "analyze_traces",
    "SCHEMA_VERSION",
    "Event",
    "EventBus",
    "NULL_BUS",
    "QuantumStart",
    "QuantumEnd",
    "ObserverSample",
    "ClassificationChanged",
    "FairnessComputed",
    "PairProposed",
    "ProfitEvaluated",
    "PairVetoed",
    "SwapExecuted",
    "OptimizerStep",
    "ArrivalPlaced",
    "CacheShareUpdated",
    "CacheClusterFormed",
    "ClusterAssigned",
    "RebalanceExecuted",
    "event_from_dict",
    "validate_event_dict",
    "JsonlSink",
    "RingBufferSink",
    "ChromeTraceSink",
    "KindTallySink",
    "InvariantSink",
    "InvariantViolation",
    "InvariantError",
    "RULES",
    "MetricsRegistry",
    "timed",
]
