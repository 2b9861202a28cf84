"""The columnar Observer against a per-sample reference, bit for bit.

``Observer.update`` works on counter columns.  ``ReferenceObserver``
below is the straightforward per-sample reading of the same rules — one
Python loop over ``counters.samples``, per-vcore window deques, per-group
lists — and lives here, not in ``src/``, as the specification the fast
path is held to.  Hypothesis feeds both the same random counter streams
(a barrier's duplicate tid row, zero accesses or runtime, negative noisy misses,
cache occupancy, the ``ipc`` metric, ragged or missing process groups,
out-of-range vcores, a vcore probed twice in one quantum) and every
report field must match exactly: same keys, same order, same bits.

The report is columnar.  ``as_dicts`` below reads its columns back into
the reference's per-thread dicts; those, the column lookups Dike's
stages use (``rate_of``, ``core_bw_of``, ``demand_of``, the C/M counts)
and the traced ``ObserverSample`` and ``ClassificationChanged`` events
all have to agree with the reference.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DikeConfig
from repro.core.observer import NO_GROUP, Observer, ObserverReport, classify
from repro.obs.events import ClassificationChanged, EventBus, ObserverSample
from repro.sim.counters import QuantumCounters, ThreadSample
from repro.util.stats import coefficient_of_variation


def left_sum(values) -> float:
    """Left-to-right float sum (the builtin ``sum`` before Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


class ReferenceObserver:
    """Per-sample Observer: the rules of `repro.core.observer`, one row
    at a time.  A tid's last row wins in every dict and in the probe's
    C/M test; fairness and demand read each active row."""

    def __init__(self, config: DikeConfig, n_vcores: int, groups=None) -> None:
        self.config = config
        self.n_vcores = n_vcores
        self.groups = dict(groups) if groups else None
        self.windows = [deque(maxlen=config.corebw_window) for _ in range(n_vcores)]
        self.best_probe = float("nan")
        self.demand: dict[int, float] = {}

    def update(self, counters: QuantumCounters) -> dict:
        access_rate, miss_rate, classification = {}, {}, {}
        active = []
        use_ipc = self.config.contention_metric == "ipc"
        for s in counters.samples:
            access_rate[s.tid] = s.ips if use_ipc else s.access_rate
            miss_rate[s.tid] = s.miss_rate
            classification[s.tid] = classify(
                s.miss_rate, self.config.classification_miss_threshold
            )
            if s.instructions > 0.0:
                active.append((s.tid, access_rate[s.tid]))
                prev = self.demand.get(s.tid, 0.0)
                self.demand[s.tid] = max(s.access_rate, 0.75 * prev)
        bw = counters.core_bandwidth
        for s in counters.samples:
            if (
                classification[s.tid] == "M"
                and s.instructions > 0.0
                and 0 <= s.vcore < self.n_vcores
            ):
                probe = float(bw[s.vcore])
                self.windows[s.vcore].append(probe)
                if not math.isfinite(self.best_probe) or probe > self.best_probe:
                    self.best_probe = probe
        core_bw = {}
        for v, window in enumerate(self.windows):
            value = left_sum(window) / len(window) if window else float("nan")
            core_bw[v] = value if math.isfinite(value) else self.best_probe
        finite = sorted(b for b in core_bw.values() if math.isfinite(b))
        high = frozenset()
        if finite:
            mid = len(finite) // 2
            if len(finite) % 2:
                median = finite[mid]
            else:
                median = (finite[mid - 1] + finite[mid]) / 2.0
            high = frozenset(
                v for v, b in core_bw.items()
                if math.isfinite(b) and b >= median and b > finite[0]
            )
        return {
            "access_rate": access_rate,
            "miss_rate": miss_rate,
            "classification": classification,
            "core_bw": core_bw,
            "high_bw_cores": high,
            "fairness": self.fairness(active),
            "demand_estimate": dict(sorted(self.demand.items())),
        }

    def fairness(self, active) -> float:
        if len(active) < 2:
            return float("nan")
        if self.groups is None:
            return coefficient_of_variation([r for _, r in active])
        by_group: dict[int, list[float]] = {}
        for tid, rate in active:
            by_group.setdefault(self.groups.get(tid, -1), []).append(rate)
        total = left_sum(left_sum(rates) for rates in by_group.values())
        if total <= 0.0:
            return 0.0
        signal = 0.0
        for rates in by_group.values():
            if len(rates) < 2:
                continue
            cv = coefficient_of_variation(rates)
            if math.isfinite(cv):
                signal += left_sum(rates) / total * cv
        return signal


def as_dicts(report: ObserverReport) -> dict:
    """The report's columns as the reference's per-thread dicts: a tid
    keyed at its first row, the demand estimate by tid."""
    rows = report.tids.tolist()

    def by_row(column) -> dict:
        return dict(zip(rows, column[report.tids].tolist()))

    demand = report.demand_by_tid[:-1]
    seen = (demand != math.inf).nonzero()[0]
    return {
        "access_rate": by_row(report.rate_by_tid),
        "miss_rate": by_row(report.miss_by_tid),
        "classification": by_row(np.where(report.is_m_by_tid, "M", "C").astype(object)),
        "core_bw": dict(enumerate(report.bw_by_vcore[:-1].tolist())),
        "high_bw_cores": frozenset(report.high_by_vcore.nonzero()[0].tolist()),
        "fairness": report.fairness,
        "demand_estimate": dict(zip(seen.tolist(), demand[seen].tolist())),
    }


def bits(value):
    """Exact, order-preserving image of a report field (repr round-trips
    float64 and tells -0.0 and nan apart from anything else)."""
    if isinstance(value, dict):
        return [(k, type(v).__name__, repr(v)) for k, v in value.items()]
    if isinstance(value, frozenset):
        return sorted(value)
    return (type(value).__name__, repr(value))


# ---------------------------------------------------------------- strategies

MAX_TID = 6


def maybe_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


@st.composite
def rows(draw, n_vcores: int):
    return ThreadSample(
        tid=draw(st.integers(0, MAX_TID)),
        # -1 (unreadable affinity under the daemon) and n_vcores are off-machine
        vcore=draw(st.integers(-1, n_vcores)),
        instructions=draw(maybe_zero(st.floats(1.0, 1e9))),
        llc_accesses=draw(maybe_zero(st.floats(1e-3, 1e8))),
        llc_misses=draw(maybe_zero(st.floats(-1e4, 1e8))),
        runtime_s=draw(maybe_zero(st.floats(1e-3, 1.0))),
        cache_mb=draw(maybe_zero(st.floats(1e-3, 30.0))),
    )


@st.composite
def quantum(draw, n_vcores: int, index: int):
    # one row per tid, as the engines and the daemon build them ...
    samples = draw(st.lists(rows(n_vcores), max_size=12, unique_by=lambda s: s.tid))
    if samples and draw(st.booleans()):
        # ... except the barrier pattern: an active row, then an idle zero row
        s = draw(st.sampled_from(samples))
        samples.append(ThreadSample(s.tid, s.vcore, 0.0, 0.0, 0.0, 0.5))
    bandwidth = draw(
        st.lists(st.floats(0.0, 1e10), min_size=n_vcores, max_size=n_vcores)
    )
    return QuantumCounters(
        quantum_index=index,
        time_s=0.5 * (index + 1),
        quantum_length_s=0.5,
        samples=samples,
        core_bandwidth=np.array(bandwidth),
    )


@st.composite
def scenarios(draw):
    n_vcores = draw(st.integers(1, 8))
    config = DikeConfig(
        corebw_window=draw(st.integers(1, 4)),
        contention_metric=draw(st.sampled_from(("access_rate", "ipc"))),
    )
    groups = draw(
        st.one_of(
            st.none(),
            # ragged groups, sizes down to 1, some tids in no group (-1)
            st.dictionaries(st.integers(0, MAX_TID), st.integers(0, 3)),
        )
    )
    n_quanta = draw(st.integers(1, 4))
    stream = [draw(quantum(n_vcores, q)) for q in range(n_quanta)]
    return config, n_vcores, groups, stream


def columnar(counters: QuantumCounters) -> QuantumCounters:
    """The same readings as engine-built columns (no sample tuple)."""
    return QuantumCounters.from_columns(
        counters.quantum_index,
        counters.time_s,
        counters.quantum_length_s,
        counters.core_bandwidth,
        tid=counters.tid.copy(),
        vcore=counters.vcore.copy(),
        instructions=counters.instructions.copy(),
        llc_accesses=counters.llc_accesses.copy(),
        llc_misses=counters.llc_misses.copy(),
        runtime_s=counters.runtime_s.copy(),
        cache_mb=counters.cache_mb.copy(),
    )


def check_lookups(report: ObserverReport, want: dict, n_vcores: int) -> None:
    """The column lookups agree with the reference dicts, ids beyond the
    columns included."""
    demand = want["demand_estimate"] or {}
    for t in range(-2, MAX_TID + 3):
        assert bits(report.rate_of(t)) == bits(want["access_rate"].get(t, 0.0))
        assert bits(report.demand_of(t)) == bits(demand.get(t, float("inf")))
    for v in range(-2, n_vcores + 2):
        assert bits(report.core_bw_of(v)) == bits(want["core_bw"].get(v, float("nan")))
    classes = list(want["classification"].values())
    assert report.n_memory() == classes.count("M")
    assert report.n_compute() == classes.count("C")


class _Collector:
    def __init__(self) -> None:
        self.events = []

    def accept(self, event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class TestColumnarObserverEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_every_report_field_bit_identical(self, scenario):
        config, n_vcores, groups, stream = scenario
        fast = Observer(config, n_vcores, groups)
        reference = ReferenceObserver(config, n_vcores, groups)
        for counters in stream:
            got = fast.update(columnar(counters))
            want = reference.update(counters)
            check_lookups(got, want, n_vcores)
            fields = as_dicts(got)
            for field, expected in want.items():
                assert bits(fields[field]) == bits(expected), field
            groups = got.group_by_tid[:-1].tolist()
            assert {t: g for t, g in enumerate(groups) if g != NO_GROUP} == (
                reference.groups or {}
            )

    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_traced_sample_holds_the_reference_dicts(self, scenario):
        config, n_vcores, groups, stream = scenario
        fast = Observer(config, n_vcores, groups)
        fast.bus = EventBus()
        collector = fast.bus.attach(_Collector())
        reference = ReferenceObserver(config, n_vcores, groups)
        previous: dict = {}
        for counters in stream:
            done = len(collector.events)
            fast.update(columnar(counters))
            want = reference.update(counters)
            events = collector.events[done:]
            (sample,) = [e for e in events if isinstance(e, ObserverSample)]
            for field in ("access_rate", "miss_rate", "classification", "core_bw"):
                assert bits(getattr(sample, field)) == bits(want[field]), field
            assert sample.high_bw_cores == tuple(sorted(want["high_bw_cores"]))
            # a sampled tid whose class differs from the previous sample's
            classes = want["classification"]
            assert [
                (e.tid, e.old, e.new) for e in events if isinstance(e, ClassificationChanged)
            ] == [
                (t, previous[t], c) for t, c in classes.items()
                if t in previous and previous[t] != c
            ]
            previous = classes

    def test_groups_are_summed_in_order_of_first_appearance(self):
        # Float addition is not associative: 1e16 + 1 + 1 differs from
        # 1 + 1 + 1e16, so group 2 (seen first) must be added first.
        groups = {0: 2, 1: 2, 2: 0, 3: 0, 4: 1, 5: 1}
        misses = (4e15, 6e15, 0.25, 0.75, 0.5, 0.5)
        counters = QuantumCounters(
            quantum_index=0, time_s=1.0, quantum_length_s=1.0,
            samples=[
                ThreadSample(tid, tid, 1e8, 1e16, m, 1.0)
                for tid, m in enumerate(misses)
            ],
            core_bandwidth=np.zeros(6),
        )
        fast = Observer(DikeConfig(), 6, groups).update(counters)
        want = ReferenceObserver(DikeConfig(), 6, groups).update(counters)
        assert bits(fast.fairness) == bits(want["fairness"])

    def test_vcore_probed_twice_in_one_quantum(self):
        # Two memory-intensive threads share vcore 1: both probe it, so its
        # window takes the core's bandwidth twice (and rolls over at 2).
        config = DikeConfig(corebw_window=2)
        fast = Observer(config, 3)
        reference = ReferenceObserver(config, 3)
        for q, (misses, bandwidth) in enumerate(
            (((4e6, 5e6), (0.0, 9e6, 0.0)), ((3e6, 3e6), (0.0, 6e6, 0.0)))
        ):
            counters = QuantumCounters(
                quantum_index=q, time_s=0.5 * (q + 1), quantum_length_s=0.5,
                samples=[
                    ThreadSample(t, 1, 1e8, 1e7, m, 0.5) for t, m in enumerate(misses)
                ],
                core_bandwidth=np.array(bandwidth),
            )
            got, want = fast.update(counters), reference.update(counters)
            assert bits(as_dicts(got)["core_bw"]) == bits(want["core_bw"])
        assert got.core_bw_of(1) == 6e6

    def test_update_never_builds_samples(self):
        counters = QuantumCounters.from_columns(
            0, 0.5, 0.5, np.array([4e6, 0.0]),
            tid=np.array([0, 1, 1]),
            vcore=np.array([0, 1, 1]),
            instructions=np.array([1e8, 1e8, 0.0]),
            llc_accesses=np.array([1e7, 1e7, 0.0]),
            llc_misses=np.array([2e6, 1e6, 0.0]),
            runtime_s=np.full(3, 0.5),
            cache_mb=np.zeros(3),
        )
        Observer(DikeConfig(), 2, {0: 0, 1: 0}).update(counters)
        assert "samples" not in vars(counters)
