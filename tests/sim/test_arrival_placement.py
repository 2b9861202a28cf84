"""Arrival placement must be unchanged by the incremental occupancy array.

``_place_arrivals`` used to recompute per-vcore occupancy by scanning every
thread each quantum; it now reads ``SimState.occupancy``, maintained
incrementally on place/migrate/finish.  These tests pin down that the
optimization changed nothing observable:

* the maintained occupancy array equals a from-scratch rescan at every
  arrival-handling opportunity, across a run with heavy swap churn and
  completions;
* the exact placement sequence for a staggered-arrival workload matches
  the sequence produced by the pre-refactor rescanning engine (captured
  values, same seed and workload).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.policies import REGISTRY
from repro.obs.events import EventBus
from repro.sim.engine import SimulationEngine
from repro.sim.topology import xeon_e5_heterogeneous
from repro.traffic import Job, TrafficWorkload


def stagger_workload() -> TrafficWorkload:
    entries = (
        ("jacobi", 0.0),
        ("srad", 2.0),
        ("streamcluster", 30.0),
        ("hotspot", 60.0),
    )
    return TrafficWorkload(
        name="stagger",
        jobs=tuple(
            Job(i, app, arrival, n_threads=8)
            for i, (app, arrival) in enumerate(entries)
        ),
    )


class OccupancyCheckingEngine(SimulationEngine):
    """Asserts the incremental occupancy equals a full rescan on every use."""

    checks = 0

    def _place_arrivals(self) -> None:
        st = self.state
        live = st.arrived & ~st.finished
        rescanned = np.bincount(
            st.vcore[live], minlength=self.topology.n_vcores
        )
        np.testing.assert_array_equal(st.occupancy, rescanned)
        OccupancyCheckingEngine.checks += 1
        super()._place_arrivals()


class ArrivalTap:
    def __init__(self) -> None:
        self.placements: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []

    def accept(self, event) -> None:
        if event.kind == "arrival_placed":
            self.placements.append(
                (event.group, tuple(event.tids), tuple(event.vcores))
            )


def run_stagger(engine_cls=SimulationEngine):
    """Mirror ``run_workload``'s construction, but with a custom engine."""
    tap = ArrivalTap()
    bus = EventBus()
    bus.attach(tap)
    wl = stagger_workload()
    engine = engine_cls(
        topology=xeon_e5_heterogeneous(),
        groups=wl.build(seed=3, work_scale=0.05),
        scheduler=REGISTRY.build("dio"),
        seed=3,
        counter_noise=0.06,
        record_timeseries=False,
        workload_name=wl.name,
        bus=bus,
    )
    engine.run()
    return tap.placements


def test_incremental_occupancy_matches_rescan():
    OccupancyCheckingEngine.checks = 0
    run_stagger(OccupancyCheckingEngine)
    # The engine consults arrivals only while unplaced groups remain; every
    # such opportunity — including the late arrivals after heavy DIO churn
    # and completions — must see identical occupancy.
    assert OccupancyCheckingEngine.checks >= 3


def test_placement_sequence_unchanged_from_rescanning_engine():
    """Captured from the pre-SoA engine (full rescan per quantum), same
    seed/workload: the incremental path must reproduce it exactly."""
    expected = [
        (1, tuple(range(8, 16)), (8, 10, 12, 14, 16, 18, 28, 30)),
        (2, tuple(range(16, 24)), (32, 34, 36, 38, 1, 3, 5, 7)),
        (3, tuple(range(24, 32)), (9, 11, 13, 15, 17, 19, 21, 23)),
    ]
    assert run_stagger() == expected


def test_same_seed_placement_deterministic():
    assert run_stagger() == run_stagger()


# --------------------------------------------------------------- rounding rule
#
# The engine is quantum-discrete: a group arriving strictly inside a
# quantum ``(t_k, t_{k+1}]`` wakes at the end boundary ``t_{k+1}`` (ceil),
# with the delay observable as ``wait_s`` on the v2 ``arrival_placed``
# event; an exactly-on-boundary arrival waits zero.  See
# ``SimulationEngine._place_arrivals`` for the contract these tests pin.

from repro.schedulers.static import StaticScheduler
from repro.sim.phases import PhaseSegment, PhaseTrace
from repro.sim.process import ProcessGroup
from repro.sim.thread import SimThread
from repro.sim.topology import homogeneous

QLEN = 0.5  # StaticScheduler's fixed quantum length


class LifecycleTap:
    def __init__(self) -> None:
        self.arrivals = []

    def accept(self, event) -> None:
        if event.kind == "arrival_placed":
            self.arrivals.append(event)


def run_with_arrivals(arrival_times):
    """One-thread jobs at exact arrival times, plus a t=0 anchor job."""
    groups = []
    for gid, arrival in enumerate([0.0, *arrival_times]):
        trace = PhaseTrace(
            [PhaseSegment(work=2.0e9, cpi=1.0, api=0.01, miss_ratio=0.1)]
        )
        thread = SimThread(
            tid=gid, benchmark="jacobi", group=gid, member=0, trace=trace
        )
        group = ProcessGroup(group_id=gid, benchmark="jacobi", threads=[thread])
        groups.append(replace(group, arrival_s=arrival))
    tap = LifecycleTap()
    bus = EventBus()
    bus.attach(tap)
    SimulationEngine(
        topology=homogeneous(),
        groups=groups,
        scheduler=StaticScheduler(),
        seed=0,
        counter_noise=0.0,
        record_timeseries=False,
        bus=bus,
    ).run()
    return tap.arrivals


def test_mid_quantum_arrival_rounds_up_to_boundary():
    (ev,) = run_with_arrivals([0.2])
    assert ev.time_s == QLEN
    assert ev.arrival_s == 0.2
    assert ev.wait_s == ev.time_s - ev.arrival_s
    assert ev.wait_s == 0.3


def test_boundary_arrival_waits_zero():
    (ev,) = run_with_arrivals([QLEN])
    assert ev.time_s == QLEN
    assert ev.wait_s == 0.0


def test_just_past_boundary_waits_almost_full_quantum():
    (ev,) = run_with_arrivals([QLEN + 1e-9])
    assert ev.time_s == 2 * QLEN
    assert ev.wait_s == pytest.approx(QLEN, abs=1e-6)


def test_wait_always_in_zero_to_quantum():
    arrivals = [0.05, 0.49999, 0.75, 1.0, 1.25, 2.2]
    events = run_with_arrivals(arrivals)
    assert len(events) == len(arrivals)
    for ev in events:
        # wake boundary = ceil(arrival / qlen) * qlen
        expected = math.ceil(ev.arrival_s / QLEN - 1e-12) * QLEN
        assert ev.time_s == pytest.approx(expected)
        assert 0.0 <= ev.wait_s < QLEN
        assert ev.queue_depth >= 1
