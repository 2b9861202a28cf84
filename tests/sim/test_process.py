"""Tests for process-group construction.

Barrier release and group completion run on `SimState` columns and are
tested in ``test_state.py``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.sim.phases import steady_trace
from repro.sim.process import ProcessGroup
from repro.sim.thread import SimThread


def make_threads(n: int = 3) -> list[SimThread]:
    return [
        SimThread(
            tid=i,
            benchmark="bench",
            group=0,
            member=i,
            trace=steady_trace(1e9, 1.0, 0.05, 0.3),
        )
        for i in range(n)
    ]


class TestConstruction:
    def test_requires_threads(self):
        with pytest.raises(ValueError):
            ProcessGroup(group_id=0, benchmark="x", threads=[])

    def test_group_id_mismatch_rejected(self):
        t = SimThread(0, "x", group=9, member=0, trace=steady_trace(1e9, 1, 0.01, 0.1))
        with pytest.raises(ValueError):
            ProcessGroup(group_id=0, benchmark="x", threads=[t])

    def test_benchmark_mismatch_rejected(self):
        t = SimThread(0, "other", group=0, member=0, trace=steady_trace(1e9, 1, 0.01, 0.1))
        with pytest.raises(ValueError):
            ProcessGroup(group_id=0, benchmark="x", threads=[t])

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            ProcessGroup(0, "bench", make_threads(), arrival_s=-1.0)

    def test_n_threads(self):
        assert ProcessGroup(0, "bench", make_threads(3)).n_threads == 3

    def test_frozen_with_a_tuple_of_threads(self):
        group = ProcessGroup(0, "bench", make_threads(2))
        assert isinstance(group.threads, tuple)
        with pytest.raises(FrozenInstanceError):
            group.arrival_s = 1.0  # type: ignore[misc]
        later = replace(group, arrival_s=1.0)
        assert later.arrival_s == 1.0 and later.threads is group.threads
