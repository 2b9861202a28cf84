"""Per-quantum hardware-performance-counter emulation.

The schedulers in this reproduction never touch simulator internals — they
read :class:`QuantumCounters`, the analogue of one ``perf`` sample window:
per-thread retired instructions, LLC accesses/misses and wall time, plus
per-core achieved bandwidth.  This is exactly the information the paper's
Observer extracts from hardware counters, so every scheduler implemented on
top of this interface would port to a real perf backend unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = ["QuantumCounters", "ThreadSample"]


@dataclass(frozen=True)
class ThreadSample:
    """Counter readings for one thread over one quantum."""

    tid: int
    vcore: int
    instructions: float
    llc_accesses: float
    llc_misses: float
    runtime_s: float
    #: allocated LLC share (MB) under an active cache backend — the
    #: analogue of CAT/CMT occupancy monitoring.  0.0 under ``NullLLC``.
    cache_mb: float = 0.0

    @property
    def access_rate(self) -> float:
        """Memory (LLC-miss) accesses per second — Dike's contention signal."""
        if self.runtime_s <= 0:
            return 0.0
        return max(self.llc_misses, 0.0) / self.runtime_s

    @property
    def miss_rate(self) -> float:
        """LLC miss ratio — the paper's C/M classification signal.

        Clamped to ``[0, 1]``: measurement noise multiplies the reported
        miss count, so raw ``misses / accesses`` can exceed 1 (a ratio no
        real counter pair would report).  A zero-access window reads 0.
        The C/M decision itself ("miss rate > 10 % ⇒ M", *strictly*
        greater) lives in :func:`repro.core.observer.classify` — this
        property only supplies the ratio.
        """
        if self.llc_accesses <= 0:
            return 0.0
        return min(max(self.llc_misses, 0.0) / self.llc_accesses, 1.0)

    @property
    def ips(self) -> float:
        """Instructions per second (the metric the paper argues *against*
        using for contention decisions, exposed for the ablation bench)."""
        return self.instructions / self.runtime_s if self.runtime_s > 0 else 0.0


def _clamp_low(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(x, 0.0)`` with Python's tie rule (``-0.0`` and NaN
    pass through), so the columns match the scalar properties bit for bit."""
    return np.where(x < 0.0, 0.0, x)


class QuantumCounters:
    """All counter readings visible to a scheduler at a quantum boundary.

    The readings are aligned NumPy columns, one row per sampled thread:
    ``tid``, ``vcore``, ``instructions``, ``llc_accesses``, ``llc_misses``,
    ``runtime_s`` and ``cache_mb``.  The derived ``access_rate``,
    ``miss_rate`` and ``ips`` columns apply exactly the formulas of the
    matching :class:`ThreadSample` properties.  ``samples`` is the same
    data as a tuple of :class:`ThreadSample`, built on first access.

    Build counters from columns with :meth:`from_columns` (the engines),
    or from :class:`ThreadSample` objects with the constructor (the
    platform daemon, tests, hand-made inputs).

    Attributes
    ----------
    quantum_index:
        Monotone counter of scheduling quanta since the run began.
    time_s:
        Simulation time at the end of the quantum.
    quantum_length_s:
        Length of the quantum that just executed.
    core_bandwidth:
        Achieved access rate per virtual core (accesses/second), dense over
        all virtual cores; idle cores read 0.

    Rows cover every thread that was *alive* during the quantum (finished
    threads drop out of subsequent quanta).  **A tid can have two rows.**
    A thread that hits a barrier mid-quantum is listed first with its
    active readings and then again, like every barrier-waiting or
    suspended thread, as an idle row of zeros.  The per-tid views
    (:meth:`sample_for`, :meth:`access_rates`, :meth:`miss_rates`,
    :meth:`cache_occupancy`) all report a tid's *last* row.
    """

    def __init__(
        self,
        quantum_index: int,
        time_s: float,
        quantum_length_s: float,
        samples: Iterable[ThreadSample],
        core_bandwidth: np.ndarray,
    ) -> None:
        samples = tuple(samples)

        def column(attr: str, dtype=np.float64) -> np.ndarray:
            return np.array([getattr(s, attr) for s in samples], dtype=dtype)

        self._bind(
            quantum_index, time_s, quantum_length_s, core_bandwidth,
            tid=column("tid", np.int64),
            vcore=column("vcore", np.int64),
            instructions=column("instructions"),
            llc_accesses=column("llc_accesses"),
            llc_misses=column("llc_misses"),
            runtime_s=column("runtime_s"),
            cache_mb=column("cache_mb"),
        )
        self.__dict__["samples"] = samples  # the lazy view, already built

    @classmethod
    def from_columns(
        cls,
        quantum_index: int,
        time_s: float,
        quantum_length_s: float,
        core_bandwidth: np.ndarray,
        *,
        tid: np.ndarray,
        vcore: np.ndarray,
        instructions: np.ndarray,
        llc_accesses: np.ndarray,
        llc_misses: np.ndarray,
        runtime_s: np.ndarray,
        cache_mb: np.ndarray,
    ) -> "QuantumCounters":
        """Counters over aligned per-row arrays (no per-thread objects)."""
        counters = cls.__new__(cls)
        counters._bind(
            quantum_index, time_s, quantum_length_s, core_bandwidth,
            tid=tid, vcore=vcore, instructions=instructions,
            llc_accesses=llc_accesses, llc_misses=llc_misses,
            runtime_s=runtime_s, cache_mb=cache_mb,
        )
        return counters

    def _bind(
        self, quantum_index, time_s, quantum_length_s, core_bandwidth, *,
        tid, vcore, instructions, llc_accesses, llc_misses, runtime_s, cache_mb,
    ) -> None:
        self.quantum_index = quantum_index
        self.time_s = time_s
        self.quantum_length_s = quantum_length_s
        self.core_bandwidth = core_bandwidth
        self.tid = tid
        self.vcore = vcore
        self.instructions = instructions
        self.llc_accesses = llc_accesses
        self.llc_misses = llc_misses
        self.runtime_s = runtime_s
        self.cache_mb = cache_mb

    def __len__(self) -> int:
        return int(self.tid.size)

    def __repr__(self) -> str:
        return (
            f"QuantumCounters(quantum_index={self.quantum_index}, "
            f"time_s={self.time_s!r}, rows={len(self)})"
        )

    # ------------------------------------------------------ derived columns

    @cached_property
    def access_rate(self) -> np.ndarray:
        """Per-row :attr:`ThreadSample.access_rate`."""
        rt = self.runtime_s
        out = np.zeros(rt.size)
        # ``~(rt <= 0)``, not ``rt > 0``: the scalar rule divides a NaN runtime.
        np.divide(_clamp_low(self.llc_misses), rt, out=out, where=~(rt <= 0.0))
        return out

    @cached_property
    def miss_rate(self) -> np.ndarray:
        """Per-row :attr:`ThreadSample.miss_rate`."""
        acc = self.llc_accesses
        ratio = np.zeros(acc.size)
        np.divide(_clamp_low(self.llc_misses), acc, out=ratio, where=~(acc <= 0.0))
        return np.where(ratio > 1.0, 1.0, ratio)

    @cached_property
    def ips(self) -> np.ndarray:
        """Per-row :attr:`ThreadSample.ips`."""
        rt = self.runtime_s
        out = np.zeros(rt.size)
        np.divide(self.instructions, rt, out=out, where=rt > 0.0)
        return out

    # ---------------------------------------------------------------- views

    @cached_property
    def samples(self) -> tuple[ThreadSample, ...]:
        """One :class:`ThreadSample` per row, in row order."""
        return tuple(
            map(
                ThreadSample,
                self.tid.tolist(),
                self.vcore.tolist(),
                self.instructions.tolist(),
                self.llc_accesses.tolist(),
                self.llc_misses.tolist(),
                self.runtime_s.tolist(),
                self.cache_mb.tolist(),
            )
        )

    def sample_for(self, tid: int) -> ThreadSample | None:
        """The last row of ``tid`` (its idle row after a barrier hit)."""
        rows = np.flatnonzero(self.tid == tid)
        return self.samples[rows[-1]] if rows.size else None

    @property
    def tids(self) -> tuple[int, ...]:
        return tuple(self.tid.tolist())

    def _by_tid(self, column: np.ndarray) -> dict[int, float]:
        # dict(zip(...)) keeps a tid at its first position with its last value.
        return dict(zip(self.tid.tolist(), column.tolist()))

    def access_rates(self) -> dict[int, float]:
        """Map tid -> access rate for all sampled threads."""
        return self._by_tid(self.access_rate)

    def miss_rates(self) -> dict[int, float]:
        """Map tid -> LLC miss ratio for all sampled threads."""
        return self._by_tid(self.miss_rate)

    def cache_occupancy(self) -> dict[int, float]:
        """Map tid -> allocated LLC share (MB); all zero under NullLLC."""
        return self._by_tid(self.cache_mb)
