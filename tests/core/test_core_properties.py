"""Property-based tests on Dike's components.

Invariants that must hold for arbitrary observation streams: the Optimizer
never leaves the legal configuration grid; the Decider's acceptances are
always a disjoint, cooldown-respecting subset; the Observer's report is
internally consistent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    QUANTA_CHOICES_S,
    SWAP_SIZE_CHOICES,
    AdaptationGoal,
    DikeConfig,
)
from repro.core.decider import Decider
from repro.core.observer import Observer, ObserverReport
from repro.core.optimizer import Optimizer
from repro.core.predictor import PairPrediction
from repro.core.selector import ThreadPair

from test_observer import make_counters


@st.composite
def observation_streams(draw):
    """A sequence of (n_memory, n_compute, fairness) observations."""
    n = draw(st.integers(1, 20))
    return [
        (
            draw(st.integers(0, 20)),
            draw(st.integers(0, 20)),
            draw(st.floats(0.0, 2.0)),
        )
        for _ in range(n)
    ]


def fake_report(n_m: int, n_c: int, fair: float) -> ObserverReport:
    classification = {i: "M" for i in range(n_m)}
    classification.update({n_m + i: "C" for i in range(n_c)})
    return ObserverReport(
        access_rate={t: 1e6 for t in classification},
        miss_rate={},
        classification=classification,
        core_bw={},
        high_bw_cores=frozenset(),
        fairness=fair,
    )


class TestOptimizerProperties:
    @given(
        observation_streams(),
        st.sampled_from([AdaptationGoal.FAIRNESS, AdaptationGoal.PERFORMANCE]),
    )
    @settings(max_examples=100, deadline=None)
    def test_config_always_legal(self, stream, goal):
        cfg = DikeConfig(goal=goal, adaptation_period=1)
        opt = Optimizer(cfg)
        for n_m, n_c, fair in stream:
            cfg = opt.maybe_update(fake_report(n_m, n_c, fair))
            assert cfg.swap_size in SWAP_SIZE_CHOICES
            assert cfg.quanta_length_s in QUANTA_CHOICES_S

    @given(observation_streams())
    @settings(max_examples=50, deadline=None)
    def test_performance_goal_never_shrinks_quanta(self, stream):
        cfg = DikeConfig(goal=AdaptationGoal.PERFORMANCE, adaptation_period=1)
        opt = Optimizer(cfg)
        prev = cfg.quanta_length_s
        for n_m, n_c, fair in stream:
            cfg = opt.maybe_update(fake_report(n_m, n_c, fair))
            assert cfg.quanta_length_s >= prev
            prev = cfg.quanta_length_s

    @given(observation_streams())
    @settings(max_examples=50, deadline=None)
    def test_fairness_goal_quanta_bounded_by_class_floors(self, stream):
        """Under the fairness goal quanta only shrink — except that
        Algorithm 2's Math.Max floor clamp may raise them back up to a
        class floor (UM's is 500 ms) when the workload class changes, which
        is the paper's own pseudocode behaviour."""
        cfg = DikeConfig(goal=AdaptationGoal.FAIRNESS, adaptation_period=1)
        opt = Optimizer(cfg)
        prev = cfg.quanta_length_s
        for n_m, n_c, fair in stream:
            cfg = opt.maybe_update(fake_report(n_m, n_c, fair))
            assert cfg.quanta_length_s <= max(prev, 0.5)
            prev = cfg.quanta_length_s

    @given(observation_streams())
    @settings(max_examples=50, deadline=None)
    def test_swap_size_monotone_nondecreasing(self, stream):
        """Both goals only ever grow swapSize (per Algorithm 2)."""
        for goal in (AdaptationGoal.FAIRNESS, AdaptationGoal.PERFORMANCE):
            cfg = DikeConfig(goal=goal, adaptation_period=1)
            opt = Optimizer(cfg)
            prev = cfg.swap_size
            for n_m, n_c, fair in stream:
                cfg = opt.maybe_update(fake_report(n_m, n_c, fair))
                assert cfg.swap_size >= prev
                prev = cfg.swap_size


@st.composite
def prediction_batches(draw):
    n = draw(st.integers(0, 12))
    preds = []
    used = set()
    for _ in range(n):
        a = draw(st.integers(0, 30))
        b = draw(st.integers(0, 30))
        if a == b:
            continue
        preds.append(
            PairPrediction(
                pair=ThreadPair(a, b),
                profit_l=draw(st.floats(-1e6, 1e6)),
                profit_h=draw(st.floats(-1e6, 1e6)),
                predicted_rate_l=draw(st.floats(0, 1e7)),
                predicted_rate_h=draw(st.floats(0, 1e7)),
                current_rate_l=draw(st.floats(0, 1e7)),
                current_rate_h=draw(st.floats(0, 1e7)),
            )
        )
    return preds


class TestDeciderProperties:
    @given(prediction_batches(), st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_accepted_subset_disjoint(self, preds, quantum):
        decider = Decider(DikeConfig())
        accepted = decider.decide(preds, quantum, float(quantum))
        assert all(p in preds for p in accepted)
        tids = [t for p in accepted for t in (p.pair.t_l, p.pair.t_h)]
        assert len(tids) == len(set(tids))

    @given(
        st.lists(prediction_batches(), min_size=2, max_size=6),
        st.floats(0.1, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_cooldown_never_violated_across_quanta(self, batches, qlen):
        decider = Decider(DikeConfig(cooldown_quanta=1, cooldown_s=1.0))
        last_swap: dict[int, tuple[int, float]] = {}
        for q, preds in enumerate(batches):
            now = q * qlen
            accepted = decider.decide(preds, q, now)
            for p in accepted:
                for tid in (p.pair.t_l, p.pair.t_h):
                    if tid in last_swap:
                        lq, lt = last_swap[tid]
                        assert q - lq > 1 or now - lt >= 1.0
                    last_swap[tid] = (q, now)


class TestObserverConsistency:
    @given(
        st.dictionaries(
            st.integers(0, 15),
            st.tuples(
                st.integers(0, 7),
                st.floats(1e3, 1e7),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_report_internally_consistent(self, threads):
        obs = Observer(DikeConfig(), n_vcores=8)
        counters = make_counters(threads)
        report = obs.update(counters)
        # every sampled thread is present, and only those
        assert set(report.present_by_tid.nonzero()[0].tolist()) == set(threads)
        # classes match the threshold
        for tid in threads:
            assert report.is_m_by_tid[tid] == (report.miss_by_tid[tid] > 0.10)
        # high-BW cores is a subset of all cores
        assert all(0 <= v < 8 for v in report.high_by_vcore.nonzero()[0])
