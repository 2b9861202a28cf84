"""Dike's prediction books as arrays, held to the dict they replaced.

``DikeScheduler`` keeps its pending predictions as columns and back-fills
them with masks.  The prediction log's record order is the insertion
order of the ``_pending`` dict of earlier versions, which
``wire_sha256.json`` pins: placement tids with a positive rate, in
placement order, then swapped tids that were not already pending.
``ReferenceBooks`` below is that dict, kept here as the specification.
Hypothesis drives both through the same quanta — swaps of threads the
report never measured, threads that leave, and a quantum index that
stands still, so predictions stay pending and are registered again.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DikeConfig
from repro.core.dike import DikeScheduler
from repro.core.observer import ObserverReport
from repro.core.predictor import PairPrediction
from repro.core.selector import ThreadPair
from repro.obs.events import EventBus
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.schedulers.base import Placement, SchedulingContext, ThreadInfo
from repro.schedulers.pipeline import StageState
from repro.topologies import TOPOLOGY_REGISTRY

N_TIDS = 12
N_VCORES = 8


class ReferenceBooks:
    """The dict books: ``tid -> (quantum, time, predicted)``."""

    def __init__(self, overhead) -> None:
        self.overhead = overhead
        self.pending: dict[int, tuple[int, float, float]] = {}
        self.records: list[tuple] = []

    def backfill(self, quantum_index: int, views: SimpleNamespace) -> None:
        done = []
        for tid, (q, t, predicted) in self.pending.items():
            if quantum_index <= q:
                continue
            actual = views.access_rate.get(tid)
            if actual is not None and actual > 0.0:
                self.records.append((t, q, tid, predicted, actual))
            done.append(tid)
        for tid in done:
            self.pending.pop(tid, None)

    def end_quantum(self, q, t, views, placement, accepted) -> None:
        demand = views.demand_estimate or {}
        for tid in placement:
            rate = views.access_rate.get(tid)
            if rate is not None and rate > 0.0:
                self.pending[tid] = (q, t, rate)
        for pred in accepted:
            for tid, dest_bw in (
                (pred.pair.t_l, views.core_bw.get(placement[pred.pair.t_h])),
                (pred.pair.t_h, views.core_bw.get(placement[pred.pair.t_l])),
            ):
                moved_case = dest_bw if dest_bw is not None else float("nan")
                predicted = min(moved_case, demand.get(tid, float("inf")))
                if predicted == predicted:
                    self.pending[tid] = (q, t, max(predicted - self.overhead(predicted), 0.0))


def bits(rows) -> list:
    return [tuple(repr(v) for v in row) for row in rows]


@st.composite
def quanta(draw):
    """One quantum: its report, the dicts it was built from, its
    placement and accepted swaps."""
    measured = draw(st.lists(st.integers(0, N_TIDS - 1), unique=True))
    rates = {
        t: draw(st.sampled_from([0.0, -0.0, 1e5, 2e5, 3.5e5]) | st.floats(0.0, 1e7))
        for t in measured
    }
    demand = {
        t: draw(st.floats(0.0, 1e7) | st.just(float("nan")))
        for t in draw(st.permutations(measured))
        if draw(st.booleans())
    }
    core_bw = {
        v: draw(st.floats(0.0, 1e7) | st.just(float("nan")))
        for v in range(N_VCORES)
        if draw(st.integers(0, 4))
    }
    placed = draw(st.lists(st.integers(0, N_TIDS + 2), unique=True, max_size=N_TIDS))
    placement = Placement.of({t: draw(st.integers(0, N_VCORES - 1)) for t in placed})
    swappable = draw(st.permutations(placed))
    accepted = [
        PairPrediction(ThreadPair(a, b), 0.0, 0.0, 0.0, 0.0)
        for a, b in zip(swappable[0::2], swappable[1::2])
        if draw(st.booleans())
    ]
    views = SimpleNamespace(
        access_rate=rates, core_bw=core_bw, demand_estimate=demand or None
    )
    report = ObserverReport(
        access_rate=rates,
        miss_rate={},
        classification={},
        core_bw=core_bw,
        high_bw_cores=frozenset(),
        fairness=1.0,
        demand_estimate=demand or None,
    )
    step = draw(st.sampled_from([0, 1, 1, 2]))
    return step, report, views, placement, accepted


def prepared_scheduler(metrics=None) -> DikeScheduler:
    sched = DikeScheduler(DikeConfig())
    topology = TOPOLOGY_REGISTRY.build("heterogeneous")
    threads = tuple(ThreadInfo(t, "jacobi", t % 3, t // 3) for t in range(N_TIDS + 3))
    sched.prepare(
        SchedulingContext(topology=topology, threads=threads, bus=EventBus(metrics))
    )
    return sched


class TestArrayBooksEqualDictBooks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(quanta(), min_size=1, max_size=6))
    def test_same_records_same_order_same_bits(self, stream):
        metrics = MetricsRegistry()
        sched = prepared_scheduler(metrics)
        reference = ReferenceBooks(sched.predictor.overhead)
        quantum_index = 0
        for step, report, views, placement, accepted in stream:
            quantum_index += step
            counters = SimpleNamespace(quantum_index=quantum_index, time_s=0.5 * quantum_index)
            sched._backfill_predictions(counters, report)
            reference.backfill(quantum_index, views)
            sched.begin_quantum(StageState(counters=counters, placement=placement))
            state = StageState(
                counters=counters, placement=placement, report=report, accepted=accepted
            )
            sched.end_quantum(state)
            reference.end_quantum(
                quantum_index, counters.time_s, views, placement, accepted
            )
            tids, q, t, predicted = sched._pending
            assert tids.tolist() == list(reference.pending)
            assert bits(zip(q.tolist(), t.tolist(), predicted.tolist())) == bits(
                reference.pending.values()
            )
        log = sched.drain_prediction_records()
        assert bits(zip(*(c.tolist() for c in log.columns()))) == bits(reference.records)
        errors = Histogram()
        for _, _, _, p, a in reference.records:
            errors.observe(abs(p - a) / a)
        histogram = metrics.histogram("dike.prediction_abs_rel_error")
        assert repr(histogram.snapshot()) == repr(errors.snapshot())

    def test_swapped_tid_without_a_measurement_appends(self):
        sched = prepared_scheduler()
        report = ObserverReport(
            access_rate={0: 1e5, 1: 0.0, 2: 2e5},
            miss_rate={},
            classification={},
            core_bw={0: 4e5, 1: 3e5, 2: 1e5},
            high_bw_cores=frozenset(),
            fairness=1.0,
        )
        placement = Placement.of({2: 2, 1: 1, 0: 0})
        counters = SimpleNamespace(quantum_index=3, time_s=1.5)
        sched.begin_quantum(StageState(counters=counters, placement=placement))
        sched.end_quantum(StageState(
            counters=counters, placement=placement, report=report,
            accepted=[PairPrediction(ThreadPair(1, 0), 0.0, 0.0, 0.0, 0.0)],
        ))
        tids, _, _, predicted = sched._pending
        # 0 and 2 in placement (tid) order; 0 takes its moved-case
        # prediction in place; 1 (no positive rate) appends
        assert tids.tolist() == [0, 2, 1]
        overhead = sched.predictor.overhead
        assert predicted.tolist() == [3e5 - overhead(3e5), 2e5, 4e5 - overhead(4e5)]
        assert np.all(sched._pending[1] == 3)
