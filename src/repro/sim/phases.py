"""Work-indexed phase traces describing a thread's execution behaviour.

A thread's demand on the machine is modelled as a :class:`PhaseTrace`: a
sequence of segments held as aligned columns (one :class:`PhaseSegment` is
one row, built on demand).  Each segment covers a contiguous span of
*work* (retired instructions) during which the thread's microarchitectural
behaviour is constant:

``cpi``
    compute cycles per instruction (excluding memory stalls),
``api``
    last-level-cache accesses per instruction,
``miss_ratio``
    fraction of LLC accesses that miss and travel to main memory.

From these the engine derives the two counters the paper's schedulers read:
the **LLC miss rate** (``miss_ratio``, the classification signal — > 10 %
means memory-intensive) and the **memory access rate**
(``api * miss_ratio * ips`` in misses/second, the contention signal).

Phases are indexed by work, not time, so a thread that is slowed down by
contention stays in its memory-intensive phase *longer* — exactly the
coupling that makes contention-aware scheduling matter.

The generator functions at the bottom build the characteristic shapes the
paper describes: a memory-intensive warm-up prologue ("many benchmarks have
a memory intensive phase in the beginning to fetch data and instructions"),
steady streaming behaviour (UM workloads are "simpler to estimate as threads
are accessing memory in steady rate"), and bursty compute behaviour ("short
periods of intensive memory access and then long periods with few memory
accesses" — the cause of Dike's higher prediction error on UC workloads).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_fraction, require

__all__ = [
    "PhaseSegment",
    "PhaseTrace",
    "steady_trace",
    "warmup_trace",
    "bursty_trace",
    "perturbed",
]


#: The rules every segment keeps, one per column in row order: ``(name,
#: lowest, highest, the rule a value below / above breaks)``.  The
#: smallest positive float as the lowest value means "> 0", the largest
#: finite float as the highest means "finite"; NaN breaks the lower bound.
_TINY = float(np.nextafter(0.0, 1.0))
_MAX = float(np.finfo(np.float64).max)
_RULES = (
    ("work", _TINY, _MAX, "> 0", "finite"),
    ("cpi", _TINY, _MAX, "> 0", "finite"),
    ("api", 0.0, _MAX, ">= 0", "finite"),
    ("miss_ratio", 0.0, 1.0, "in [0.0, 1.0]", "in [0.0, 1.0]"),
)
_LOWEST = np.array([[rule[1]] for rule in _RULES])
_HIGHEST = np.array([[rule[2]] for rule in _RULES])


def _check_columns(block: np.ndarray) -> None:
    """Validate a ``(4, n)`` block of per-segment ``work``/``cpi``/``api``/
    ``miss_ratio`` columns against :data:`_RULES`.

    Raises ``ValueError`` naming the field for the first bad segment, in
    segment order and, within a segment, in field order.
    """
    above_lowest = block >= _LOWEST
    ok = above_lowest & (block <= _HIGHEST)
    if ok.all():
        return
    row = int(np.argmin(ok.all(axis=0)))
    field = int(np.argmin(ok[:, row]))
    name, _, _, below, above = _RULES[field]
    rule = above if above_lowest[field, row] else below
    raise ValueError(f"{name} must be {rule}, got {float(block[field, row])}")


@dataclass(frozen=True)
class PhaseSegment:
    """Constant-behaviour span of ``work`` instructions: one row of a
    :class:`PhaseTrace`."""

    work: float
    cpi: float
    api: float
    miss_ratio: float

    def __post_init__(self) -> None:
        _check_columns(
            np.array(
                [[self.work], [self.cpi], [self.api], [self.miss_ratio]],
                dtype=np.float64,
            )
        )

    @property
    def mpi(self) -> float:
        """Main-memory accesses (LLC misses) per instruction."""
        return self.api * self.miss_ratio


class PhaseTrace:
    """An immutable sequence of segments, held as aligned columns.

    The trace's total work is the thread's total instruction count; the
    engine (`repro.sim.state`) treats the last segment as extending past
    the end (which only floating-point slack at completion reaches).
    ``PhaseTrace(segments)`` converts rows to columns; :meth:`from_columns`
    takes the columns directly.
    """

    def __init__(self, segments: list[PhaseSegment] | tuple[PhaseSegment, ...]) -> None:
        segments = tuple(segments)
        self._set_columns(
            [s.work for s in segments],
            [s.cpi for s in segments],
            [s.api for s in segments],
            [s.miss_ratio for s in segments],
        )

    @classmethod
    def from_columns(cls, work, cpi, api, miss_ratio) -> "PhaseTrace":
        """A trace from aligned per-segment ``work``/``cpi``/``api``/
        ``miss_ratio`` sequences, validated as :class:`PhaseSegment` rows
        are (the columns are copied)."""
        trace = cls.__new__(cls)
        trace._set_columns(work, cpi, api, miss_ratio)
        return trace

    def _set_columns(self, work, cpi, api, miss_ratio) -> None:
        n = len(work)
        require(n >= 1, "a trace needs at least one segment")
        require(
            len(cpi) == len(api) == len(miss_ratio) == n,
            "segment columns must be of equal length",
        )
        block = np.array((work, cpi, api, miss_ratio), dtype=np.float64)
        require(block.shape == (4, n), "segment columns must be 1-D")
        _check_columns(block)
        block.setflags(write=False)
        # Read-only row views: the dense per-segment columns the engine's
        # structure-of-arrays gather reads (`repro.sim.state`).
        self._works, self._cpis, self._apis, self._miss_ratios = block
        self._bounds = np.cumsum(self._works)
        self._bounds.setflags(write=False)
        self._segments: tuple[PhaseSegment, ...] | None = None

    @property
    def segments(self) -> tuple[PhaseSegment, ...]:
        """The rows, built from the columns on first read."""
        if self._segments is None:
            self._segments = tuple(
                PhaseSegment(w, c, a, m)
                for w, c, a, m in zip(
                    self._works.tolist(),
                    self._cpis.tolist(),
                    self._apis.tolist(),
                    self._miss_ratios.tolist(),
                )
            )
        return self._segments

    @property
    def bounds(self) -> np.ndarray:
        """Cumulative work position of each segment's end (read-only)."""
        return self._bounds

    @property
    def seg_works(self) -> np.ndarray:
        """Per-segment ``work`` spans, aligned with :attr:`bounds`."""
        return self._works

    @property
    def seg_cpis(self) -> np.ndarray:
        """Per-segment ``cpi`` values, aligned with :attr:`bounds`."""
        return self._cpis

    @property
    def seg_apis(self) -> np.ndarray:
        """Per-segment ``api`` values, aligned with :attr:`bounds`."""
        return self._apis

    @property
    def seg_miss_ratios(self) -> np.ndarray:
        """Per-segment ``miss_ratio`` values, aligned with :attr:`bounds`."""
        return self._miss_ratios

    @property
    def total_work(self) -> float:
        """Total instructions in the trace."""
        return float(self._bounds[-1])

    @property
    def n_segments(self) -> int:
        return self._works.size

    def mean_mpi(self) -> float:
        """Work-weighted mean misses per instruction (rough intensity)."""
        weights = self._works
        mpis = self._apis * self._miss_ratios
        return float((weights * mpis).sum() / weights.sum())

    def mean_miss_ratio(self) -> float:
        """Work-weighted mean LLC miss ratio (classification signal)."""
        weights = self._works
        return float((weights * self._miss_ratios).sum() / weights.sum())

    def __repr__(self) -> str:
        return (
            f"PhaseTrace(n_segments={self.n_segments}, "
            f"total_work={self.total_work:.3g})"
        )


def steady_trace(
    total_work: float,
    cpi: float,
    api: float,
    miss_ratio: float,
) -> PhaseTrace:
    """A single-segment trace with constant behaviour."""
    return PhaseTrace.from_columns([total_work], [cpi], [api], [miss_ratio])


def warmup_trace(
    total_work: float,
    cpi: float,
    api: float,
    miss_ratio: float,
    warmup_fraction: float = 0.06,
    warmup_miss_ratio: float = 0.5,
    warmup_api_scale: float = 1.5,
) -> PhaseTrace:
    """A memory-intensive prologue followed by steady behaviour.

    Models the data/instruction fetch phase the paper observes at benchmark
    start: for the first ``warmup_fraction`` of the work, the LLC miss ratio
    is ``warmup_miss_ratio`` and the access rate is inflated.
    """
    check_fraction(warmup_fraction, "warmup_fraction")
    require(0.0 < warmup_fraction < 1.0, "warmup_fraction must be in (0, 1)")
    w_warm = total_work * warmup_fraction
    w_rest = total_work - w_warm
    return PhaseTrace.from_columns(
        [w_warm, w_rest],
        [cpi, cpi],
        [api * warmup_api_scale, api],
        [warmup_miss_ratio, miss_ratio],
    )


def bursty_trace(
    total_work: float,
    cpi: float,
    api: float,
    quiet_miss_ratio: float,
    burst_miss_ratio: float,
    burst_fraction: float = 0.2,
    n_cycles: int = 12,
    burst_api_scale: float = 1.8,
    rng: np.random.Generator | None = None,
    jitter: float = 0.3,
) -> PhaseTrace:
    """Alternating quiet/burst segments — compute apps with memory bursts.

    ``n_cycles`` quiet/burst pairs partition the work; in each cycle a
    ``burst_fraction`` slice runs with ``burst_miss_ratio`` and an inflated
    access rate.  With ``rng`` the cycle lengths are jittered by up to
    ``jitter`` relative so the bursts of sibling threads do not align
    perfectly (which would make prediction unrealistically easy).
    """
    require(n_cycles >= 1, "n_cycles must be >= 1")
    check_fraction(burst_fraction, "burst_fraction")
    require(0.0 < burst_fraction < 1.0, "burst_fraction must be in (0, 1)")
    cycle_work = np.full(n_cycles, total_work / n_cycles)
    if rng is not None and jitter > 0.0:
        factors = 1.0 + rng.uniform(-jitter, jitter, size=n_cycles)
        cycle_work = cycle_work * factors
        cycle_work *= total_work / cycle_work.sum()
    # Each cycle is a quiet segment, then a burst segment.
    works = np.stack(
        (cycle_work * (1.0 - burst_fraction), cycle_work * burst_fraction), axis=1
    ).ravel()
    return PhaseTrace.from_columns(
        works,
        np.full(works.size, cpi),
        np.tile([api, api * burst_api_scale], n_cycles),
        np.tile([quiet_miss_ratio, burst_miss_ratio], n_cycles),
    )


def perturbed(
    trace: PhaseTrace,
    rng: np.random.Generator,
    work_jitter: float = 0.02,
    rate_jitter: float = 0.05,
) -> PhaseTrace:
    """A per-thread copy of ``trace`` with small multiplicative noise.

    Homogeneous threads of one benchmark are *almost* identical; this jitter
    keeps them from being bit-identical, so fairness metrics exercise real
    dispersion rather than exact ties.
    """
    check_fraction(work_jitter, "work_jitter")
    check_fraction(rate_jitter, "rate_jitter")
    # One batched draw replaces four scalar RNG calls per segment; the
    # unit draws are scaled exactly as ``Generator.uniform`` scales them
    # (``low + (high - low) * u``), so the output is bit-identical to the
    # per-segment formulation.
    n = trace.n_segments
    u = rng.random((n, 4))
    wj, rj = work_jitter, rate_jitter
    works = trace.seg_works * (1.0 + (-wj + 2.0 * wj * u[:, 0]))
    cpis = trace.seg_cpis * (1.0 + (-rj + 2.0 * rj * u[:, 1]))
    apis = trace.seg_apis * (1.0 + (-rj + 2.0 * rj * u[:, 2]))
    misses = np.clip(
        trace.seg_miss_ratios * (1.0 + (-rj + 2.0 * rj * u[:, 3])), 0.0, 1.0
    )
    return PhaseTrace.from_columns(works, cpis, apis, misses)
