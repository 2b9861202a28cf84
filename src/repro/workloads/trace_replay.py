"""Trace-driven workloads: replay recorded counter streams as benchmarks.

The built-in Rodinia models are hand-calibrated; this module lets a user
drive the simulator with *measured* behaviour instead:

* :func:`trace_from_samples` converts a sequence of per-window counter
  readings — ``(instructions, llc_accesses, llc_misses)``, exactly what
  ``perf stat -I`` or this library's own :class:`CounterWindow` sampling
  produces — into a :class:`~repro.sim.phases.PhaseTrace`;
* :func:`benchmark_from_csv` builds a :class:`BenchmarkSpec` from such
  samples stored as CSV (one row per sampling window);
* :func:`record_benchmark_trace` extracts the counter stream of a
  benchmark from a simulated run, closing the loop (a recorded run can be
  replayed as a workload).

The conversion is behaviour-preserving at quantum granularity: each
sampling window becomes one phase segment whose ``api``/``miss_ratio``
reproduce the window's observed ratios.  The compute intensity ``cpi``
cannot be recovered from memory counters alone and defaults to a caller-
supplied estimate.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from repro.sim.phases import PhaseTrace
from repro.sim.results import RunResult
from repro.workloads.benchmark import BenchmarkSpec
from repro.util.validation import check_positive, require

__all__ = [
    "trace_from_samples",
    "benchmark_from_samples",
    "benchmark_from_csv",
    "record_benchmark_trace",
]

#: A counter sample: (instructions, llc_accesses, llc_misses).
Sample = tuple[float, float, float]


def trace_from_samples(
    samples: Sequence[Sample],
    cpi: float = 1.0,
    min_instructions: float = 1.0,
) -> PhaseTrace:
    """Convert counter windows into a phase trace.

    Windows with fewer than ``min_instructions`` retired instructions are
    skipped (idle/barrier windows carry no behavioural information).
    Consecutive windows with identical ratios are merged into one segment.
    """
    check_positive(cpi, "cpi")
    works: list[float] = []
    apis: list[float] = []
    ratios: list[float] = []
    for i, (instr, accesses, misses) in enumerate(samples):
        if instr < min_instructions:
            continue
        require(accesses >= 0 and misses >= 0, f"sample {i} has negative counters")
        require(
            misses <= accesses or accesses == 0,
            f"sample {i}: misses exceed accesses",
        )
        api = accesses / instr
        miss_ratio = (misses / accesses) if accesses > 0 else 0.0
        if (
            works
            and abs(apis[-1] - api) < 1e-12
            and abs(ratios[-1] - miss_ratio) < 1e-12
        ):
            # The merged segment takes the latest window's ratios.
            works[-1] += instr
            apis[-1], ratios[-1] = api, miss_ratio
        else:
            works.append(instr)
            apis.append(api)
            ratios.append(miss_ratio)
    require(works, "no usable samples (all below min_instructions?)")
    return PhaseTrace.from_columns(works, [cpi] * len(works), apis, ratios)


def benchmark_from_samples(
    name: str,
    samples: Sequence[Sample],
    cpi: float = 1.0,
    n_threads: int = 8,
    intensity: str | None = None,
) -> BenchmarkSpec:
    """A :class:`BenchmarkSpec` whose threads replay ``samples``.

    ``intensity`` defaults to the trace's own classification (mean miss
    ratio against the paper's 10 % threshold).  ``work_scale`` applies at
    build time by uniformly scaling every segment's work.
    """
    base = trace_from_samples(samples, cpi=cpi)
    if intensity is None:
        intensity = "M" if base.mean_miss_ratio() > 0.10 else "C"

    def build(rng, scale: float) -> PhaseTrace:
        return PhaseTrace.from_columns(
            base.seg_works * scale, base.seg_cpis, base.seg_apis,
            base.seg_miss_ratios,
        )

    return BenchmarkSpec(name, intensity, build, n_threads=n_threads)


def benchmark_from_csv(
    path: str | Path,
    name: str | None = None,
    cpi: float = 1.0,
    n_threads: int = 8,
) -> BenchmarkSpec:
    """Load counter samples from CSV.

    Expected columns (header required, extra columns ignored):
    ``instructions,llc_accesses,llc_misses``.
    """
    path = Path(path)
    samples: list[Sample] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        require(
            reader.fieldnames is not None
            and {"instructions", "llc_accesses", "llc_misses"}
            <= set(reader.fieldnames),
            f"{path} must have columns instructions,llc_accesses,llc_misses",
        )
        for row in reader:
            samples.append(
                (
                    float(row["instructions"]),
                    float(row["llc_accesses"]),
                    float(row["llc_misses"]),
                )
            )
    return benchmark_from_samples(
        name or path.stem, samples, cpi=cpi, n_threads=n_threads
    )


def record_benchmark_trace(
    result: RunResult, benchmark: str, member: int = 0
) -> list[Sample]:
    """Extract one thread's counter stream from a traced run.

    Requires the run to have been recorded with ``record_timeseries=True``
    — note the access-rate series records *rates*; instructions and
    accesses are reconstructed per quantum from the rates and quantum
    lengths, so replaying a recording reproduces behaviour at quantum
    granularity, not exactly.
    """
    require(result.trace is not None, "run has no trace attached")
    trace = result.trace
    require(
        trace.record_timeseries and trace.times,
        "run was not recorded with timeseries enabled",
    )
    bench = result.benchmark_named(benchmark)
    # Thread ids are dense in group-build order, so the group's tid range
    # is the cumulative thread count of the groups before it.
    offset = 0
    for b in result.benchmarks:
        if b.benchmark == benchmark and b.group_id == bench.group_id:
            break
        offset += len(b.thread_finish_times)
    tid = offset + member
    samples: list[Sample] = []
    for q, rates in enumerate(trace.access_rates):
        rate = rates.get(tid)
        if rate is None:
            continue
        qlen = trace.quantum_lengths[q]
        misses = rate * qlen
        # api/miss split is not recorded; approximate a 3x access:miss ratio
        accesses = misses * 3.0
        instructions = max(misses * 40.0, 1.0)
        samples.append((instructions, accesses, misses))
    require(samples, f"thread {tid} never appeared in the trace")
    return samples
