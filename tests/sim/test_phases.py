"""Tests for phase traces and their generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.phases import (
    PhaseSegment,
    PhaseTrace,
    bursty_trace,
    perturbed,
    steady_trace,
    warmup_trace,
)
from repro.util.rng import make_rng


#: Non-finite values a segment rejects, with the field the error names.
NON_FINITE = [("work", math.inf), ("cpi", math.inf), ("api", math.inf)]
#: One bad value per rule that every segment keeps.
BAD_FIELDS = NON_FINITE + [
    ("work", 0.0),
    ("work", -1.0),
    ("work", math.nan),
    ("cpi", 0.0),
    ("api", -0.01),
    ("api", math.nan),
    ("miss_ratio", 1.5),
    ("miss_ratio", math.nan),
]
GOOD_ROW = {"work": 1e9, "cpi": 1.0, "api": 0.01, "miss_ratio": 0.1}


class TestPhaseSegment:
    def test_mpi_is_api_times_miss_ratio(self):
        seg = PhaseSegment(1e9, cpi=1.0, api=0.05, miss_ratio=0.4)
        assert seg.mpi == pytest.approx(0.02)

    def test_rejects_zero_work(self):
        with pytest.raises(ValueError):
            PhaseSegment(0.0, 1.0, 0.01, 0.1)

    def test_rejects_miss_ratio_above_one(self):
        with pytest.raises(ValueError):
            PhaseSegment(1e9, 1.0, 0.01, 1.5)

    @pytest.mark.parametrize("field, value", NON_FINITE)
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            PhaseSegment(**{**GOOD_ROW, field: value})


class TestPhaseTrace:
    def test_total_work_sums_segments(self):
        trace = PhaseTrace(
            [PhaseSegment(1e9, 1.0, 0.01, 0.1), PhaseSegment(2e9, 1.0, 0.01, 0.1)]
        )
        assert trace.total_work == pytest.approx(3e9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhaseTrace([])
        with pytest.raises(ValueError):
            PhaseTrace.from_columns([], [], [], [])

    def test_mean_mpi_work_weighted(self):
        trace = PhaseTrace(
            [
                PhaseSegment(1e9, 1.0, api=0.1, miss_ratio=1.0),  # mpi 0.1
                PhaseSegment(3e9, 1.0, api=0.0, miss_ratio=0.0),  # mpi 0
            ]
        )
        assert trace.mean_mpi() == pytest.approx(0.025)

    def test_rows_and_columns_build_the_same_trace(self):
        a = PhaseSegment(1e9, 1.0, 0.01, 0.1)
        b = PhaseSegment(2e9, 2.0, 0.02, 0.2)
        from_rows = PhaseTrace([a, b])
        from_cols = PhaseTrace.from_columns(
            [1e9, 2e9], [1.0, 2.0], [0.01, 0.02], [0.1, 0.2]
        )
        for name in ("bounds", "seg_works", "seg_cpis", "seg_apis", "seg_miss_ratios"):
            np.testing.assert_array_equal(
                getattr(from_rows, name), getattr(from_cols, name)
            )
        assert from_rows.segments == (a, b) == from_cols.segments
        assert from_cols.bounds.tolist() == [1e9, 3e9]

    def test_segments_are_built_once_from_the_columns(self):
        trace = warmup_trace(1e9, 1.0, 0.05, 0.3, warmup_fraction=0.1)
        rows = trace.segments
        assert trace.segments is rows
        assert [s.miss_ratio for s in rows] == trace.seg_miss_ratios.tolist()

    def test_columns_are_copied_and_read_only(self):
        work = np.array([1e9, 1e9])
        trace = PhaseTrace.from_columns(work, [1.0, 1.0], [0.01, 0.01], [0.1, 0.1])
        work[0] = 5.0
        assert trace.seg_works[0] == 1e9
        with pytest.raises(ValueError):
            trace.seg_cpis[0] = 2.0

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            PhaseTrace.from_columns([1e9, 1e9], [1.0], [0.01, 0.01], [0.1, 0.1])

    @pytest.mark.parametrize("field, value", BAD_FIELDS)
    def test_from_columns_rejects_bad_field(self, field, value):
        # Row 0 is good; the message names the field of the bad row 1.
        cols = {k: [v, v] for k, v in GOOD_ROW.items()}
        cols[field][1] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            PhaseTrace.from_columns(**cols)

    def test_first_bad_row_is_reported(self):
        with pytest.raises(ValueError, match=r"^cpi must be finite, got inf$"):
            PhaseTrace.from_columns(
                [1e9, 0.0], [math.inf, 1.0], [0.01, 0.01], [0.1, 0.1]
            )


class TestGenerators:
    def test_steady_single_segment(self):
        assert steady_trace(1e9, 1.0, 0.05, 0.3).n_segments == 1

    def test_warmup_prologue_is_memory_intensive(self):
        trace = warmup_trace(1e10, 1.0, 0.04, 0.2, warmup_fraction=0.1)
        first, rest = trace.segments
        assert first.miss_ratio > rest.miss_ratio
        assert first.work == pytest.approx(1e9)

    def test_warmup_fraction_bounds(self):
        with pytest.raises(ValueError):
            warmup_trace(1e9, 1.0, 0.01, 0.1, warmup_fraction=0.0)

    def test_bursty_alternates(self):
        trace = bursty_trace(1e10, 0.8, 0.03, 0.05, 0.35, n_cycles=4)
        ratios = [s.miss_ratio for s in trace.segments]
        assert ratios == [0.05, 0.35] * 4

    def test_bursty_preserves_total_work(self):
        rng = make_rng(1, "t")
        trace = bursty_trace(1e10, 0.8, 0.03, 0.05, 0.35, n_cycles=7, rng=rng)
        assert trace.total_work == pytest.approx(1e10)

    def test_bursty_jitter_varies_cycles(self):
        rng = make_rng(2, "t")
        trace = bursty_trace(1e10, 0.8, 0.03, 0.05, 0.35, n_cycles=5, rng=rng)
        quiet_works = [s.work for s in trace.segments[::2]]
        assert len(set(round(w) for w in quiet_works)) > 1

    def test_bursty_matches_per_cycle_rows(self):
        trace = bursty_trace(
            1e10, 0.8, 0.03, 0.05, 0.35, n_cycles=5, rng=make_rng(3, "t")
        )
        rng = make_rng(3, "t")
        cycle_work = np.full(5, 1e10 / 5) * (1.0 + rng.uniform(-0.3, 0.3, size=5))
        cycle_work *= 1e10 / cycle_work.sum()
        rows = []
        for w in cycle_work.tolist():
            rows += [
                PhaseSegment(w * 0.8, 0.8, 0.03, 0.05),
                PhaseSegment(w * 0.2, 0.8, 0.03 * 1.8, 0.35),
            ]
        assert trace.segments == tuple(rows)

    def test_bursty_validates_cycles(self):
        with pytest.raises(ValueError):
            bursty_trace(1e9, 1.0, 0.01, 0.05, 0.3, n_cycles=0)

    @given(st.integers(1, 12), st.floats(0.05, 0.9))
    def test_bursty_work_conservation_property(self, n_cycles, burst_fraction):
        trace = bursty_trace(
            1e9, 1.0, 0.02, 0.05, 0.3,
            burst_fraction=burst_fraction, n_cycles=n_cycles,
        )
        assert trace.total_work == pytest.approx(1e9, rel=1e-9)


class TestPerturbed:
    def test_structure_preserved(self):
        base = bursty_trace(1e10, 0.8, 0.03, 0.05, 0.35, n_cycles=3)
        out = perturbed(base, make_rng(0, "p"))
        assert out.n_segments == base.n_segments

    def test_total_work_close(self):
        base = steady_trace(1e10, 1.0, 0.05, 0.3)
        out = perturbed(base, make_rng(0, "p"), work_jitter=0.02)
        assert out.total_work == pytest.approx(1e10, rel=0.03)

    def test_miss_ratio_stays_valid(self):
        base = steady_trace(1e9, 1.0, 0.05, 0.99)
        for i in range(20):
            out = perturbed(base, make_rng(i, "p"), rate_jitter=0.1)
            assert 0.0 <= out.segments[0].miss_ratio <= 1.0

    def test_deterministic_per_rng(self):
        base = steady_trace(1e9, 1.0, 0.05, 0.3)
        a = perturbed(base, make_rng(5, "q"))
        b = perturbed(base, make_rng(5, "q"))
        assert a.segments == b.segments
