"""The tuner's contracts: determinism, budget, resume, LMS predictor.

The load-bearing guarantee is **same seed + budget ⇒ identical tuned
artifact** — the artifact is the search's full deterministic record
(trajectory + winner, no timestamps, no cache statistics), so two runs
of the same config must serialise byte-identically, and a re-run over a
warm cache store must execute zero new simulations.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign.core import Campaign
from repro.campaign.store import ResultStore
from repro.campaign.telemetry import Telemetry
from repro.policies import REGISTRY
from repro.tune import TuneConfig, Tuner
from repro.tune.space import SearchSpace
from repro.tune.strategies import SuccessiveHalvingStrategy

SCALE = 0.01  # tiny work scale: each evaluation is a few ms of sim


def _config(**overrides) -> TuneConfig:
    base = dict(
        policy="dike",
        strategy="ga",
        budget=5,
        seed=3,
        workloads=("wl1",),
        work_scale=SCALE,
        population=4,
    )
    base.update(overrides)
    return TuneConfig(**base)


def _artifact(campaign, config) -> dict:
    return Tuner(campaign, config).run().to_artifact()


class TestDeterminism:
    def test_same_seed_and_budget_yield_identical_artifact(self):
        a = _artifact(Campaign.inline(), _config())
        b = _artifact(Campaign.inline(), _config())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_halving_is_deterministic_too(self):
        cfg = _config(strategy="halving", budget=4, quick_scale=0.005)
        a = _artifact(Campaign.inline(), cfg)
        b = _artifact(Campaign.inline(), cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_changes_the_trajectory(self):
        a = _artifact(Campaign.inline(), _config(seed=3))
        b = _artifact(Campaign.inline(), _config(seed=4))
        assert a["history"] != b["history"]

    def test_artifact_is_json_clean(self):
        """No NumPy scalars leak: every value survives strict JSON."""
        doc = _artifact(Campaign.inline(), _config())
        json.dumps(doc, allow_nan=False)


class TestBudgetAndArtifact:
    def test_distinct_evaluations_respect_budget(self):
        result = Tuner(Campaign.inline(), _config(budget=5)).run()
        assert 1 <= result.n_evaluations <= 5
        assert len(result.history) <= 5

    def test_winner_validates_against_the_registry(self):
        doc = _artifact(Campaign.inline(), _config())
        REGISTRY.get(doc["policy"]).validate_params(doc["params"])

    def test_policy_arg_is_cli_grammar(self):
        result = Tuner(Campaign.inline(), _config()).run()
        arg = result.policy_arg()
        assert arg.startswith("dike:")
        for pair in arg.split(":", 1)[1].split(","):
            assert "=" in pair

    def test_unknown_tunable_rejected(self):
        with pytest.raises(ValueError):
            Tuner(Campaign.inline(), _config(tunables=("no_such_knob",)))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            _config(strategy="annealing")


class TestResume:
    def test_rerun_over_warm_cache_executes_nothing(self, tmp_path):
        cold = Telemetry(stream=None)
        _artifact(
            Campaign(store=ResultStore(tmp_path), telemetry=cold), _config()
        )
        assert cold.done > 0 and cold.cache_hits == 0

        warm = Telemetry(stream=None)
        rerun = _artifact(
            Campaign(store=ResultStore(tmp_path), telemetry=warm), _config()
        )
        assert warm.done == 0 and warm.cache_hits == cold.done
        cold_doc = _artifact(Campaign.inline(), _config())
        assert json.dumps(rerun, sort_keys=True) == json.dumps(
            cold_doc, sort_keys=True
        )


class TestSearchSpace:
    def test_samples_are_plain_python_scalars(self):
        space = SearchSpace.for_policy("dike")
        rng = np.random.default_rng(0)
        for _ in range(20):
            point = space.sample(rng)
            for value in point.values():
                assert type(value) in (int, float)

    def test_mutation_stays_in_bounds(self):
        space = SearchSpace.for_policy("dike")
        rng = np.random.default_rng(1)
        point = space.sample(rng)
        for _ in range(50):
            point = space.mutate(point, rng)  # .validate() raises if out

    def test_halving_ladder_ends_at_full_scale(self):
        strat = SuccessiveHalvingStrategy(eta=2, quick_scale=0.05)
        ladder = strat.ladder(1.0)
        assert ladder[-1] is None
        scales = ladder[:-1]
        assert scales == sorted(scales) and all(s < 1.0 for s in scales)

    def test_ladder_collapses_when_full_scale_is_tiny(self):
        strat = SuccessiveHalvingStrategy(eta=2, quick_scale=0.05)
        assert strat.ladder(0.01) == [None]


class TestLMSPredictor:
    def test_converges_on_a_constant_signal(self):
        from repro.core.lms import LMSRatePredictor

        lms = LMSRatePredictor(taps=4, mu=0.5)
        for _ in range(40):
            lms.update([7], [100.0])
        assert lms.predict(7, fallback=0.0) == pytest.approx(100.0, rel=0.05)

    def test_falls_back_to_persistence_before_history_fills(self):
        from repro.core.lms import LMSRatePredictor

        lms = LMSRatePredictor(taps=8, mu=0.5)
        lms.update([3], [50.0])
        assert lms.predict(3, fallback=50.0) == 50.0

    def test_prune_drops_dead_threads(self):
        from repro.core.lms import LMSRatePredictor

        lms = LMSRatePredictor(taps=2, mu=0.5)
        lms.update([1, 2], [10.0, 20.0])
        lms.prune(np.array([2]))
        assert 1 not in lms._history and 2 in lms._history

    def test_dike_lms_registered_with_full_invariants(self):
        spec = REGISTRY.get("dike-lms")
        names = {p.name for p in spec.params}
        assert {"lms_taps", "lms_mu"} <= names
        assert len(spec.invariants) == 5
        sched = REGISTRY.build("dike-lms", {"lms_taps": 2, "lms_mu": 0.3})
        info = sched.describe()
        assert info["lms_taps"] == 2 and info["lms_mu"] == 0.3

    def test_lms_bounds_enforced(self):
        with pytest.raises(ValueError):
            REGISTRY.build("dike-lms", {"lms_taps": 0})
        with pytest.raises(ValueError):
            REGISTRY.build("dike-lms", {"lms_mu": 0.0})
