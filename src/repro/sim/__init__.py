"""Heterogeneous-multicore simulator substrate.

This package is the reproduction's replacement for the paper's physical
testbed (see DESIGN.md §2): a quantum-level discrete-time model of sockets,
SMT cores, frequency heterogeneity, and two-stage memory contention, driven
by phase-trace workloads, exposing hardware-counter-equivalent observations
to schedulers.
"""

from repro.sim.counters import QuantumCounters, ThreadSample
from repro.sim.engine import SimulationEngine
from repro.sim.llc import (
    LLC_MODELS,
    LLCConfig,
    LLCModel,
    NullLLC,
    OccupancyLLC,
    make_llc,
)
from repro.sim.memory import (
    MemoryModelConfig,
    MemorySystem,
    allocate_bandwidth,
    waterfill,
)
from repro.sim.migration import MigrationModel
from repro.sim.phases import (
    PhaseSegment,
    PhaseTrace,
    bursty_trace,
    perturbed,
    steady_trace,
    warmup_trace,
)
from repro.sim.process import ProcessGroup
from repro.sim.results import BenchmarkResult, PredictionLog, PredictionRecord, RunResult
from repro.sim.smt import smt_cycle_rates
from repro.sim.thread import SimThread, ThreadState
from repro.sim.topology import (
    SocketSpec,
    Topology,
    VirtualCore,
    homogeneous,
    multi_socket,
    xeon_e5_heterogeneous,
)
from repro.sim.trace import SwapEvent, TraceRecorder

__all__ = [
    "QuantumCounters",
    "ThreadSample",
    "SimulationEngine",
    "LLC_MODELS",
    "LLCConfig",
    "LLCModel",
    "NullLLC",
    "OccupancyLLC",
    "make_llc",
    "MemoryModelConfig",
    "MemorySystem",
    "allocate_bandwidth",
    "waterfill",
    "MigrationModel",
    "PhaseSegment",
    "PhaseTrace",
    "bursty_trace",
    "perturbed",
    "steady_trace",
    "warmup_trace",
    "ProcessGroup",
    "BenchmarkResult",
    "PredictionLog",
    "PredictionRecord",
    "RunResult",
    "smt_cycle_rates",
    "SimThread",
    "ThreadState",
    "SocketSpec",
    "Topology",
    "VirtualCore",
    "homogeneous",
    "multi_socket",
    "xeon_e5_heterogeneous",
    "SwapEvent",
    "TraceRecorder",
]
