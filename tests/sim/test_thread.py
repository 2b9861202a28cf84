"""Tests for the static per-thread record.

A thread's lifecycle (progress, barriers, migration, completion) lives in
`SimState` and is tested in ``test_state.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.phases import steady_trace
from repro.sim.thread import SimThread


def make_thread(work: float = 1e9, barriers: tuple[float, ...] = ()) -> SimThread:
    return SimThread(
        tid=0,
        benchmark="test",
        group=0,
        member=0,
        trace=steady_trace(work, 1.0, 0.05, 0.3),
        barrier_fractions=barriers,
    )


class TestRecord:
    def test_total_work_is_the_traces(self):
        assert make_thread(work=2e9).total_work == 2e9

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_thread().tid = 1

    def test_negative_tid_rejected(self):
        with pytest.raises(ValueError):
            SimThread(-1, "test", 0, 0, steady_trace(1e9, 1.0, 0.05, 0.3))


class TestBarriers:
    def test_barrier_fractions_sorted_and_validated(self):
        t = make_thread(barriers=(0.7, 0.2))
        assert t.barrier_fractions == (0.2, 0.7)
        with pytest.raises(ValueError):
            make_thread(barriers=(1.5,))
