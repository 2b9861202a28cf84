"""Cache-key stability and sensitivity (the campaign cache's contract)."""

from __future__ import annotations

import pytest

from repro.campaign import cachekey
from repro.campaign.cachekey import cache_key, task_fingerprint
from repro.campaign.spec import WorkloadRef
from repro.spec import ExperimentSpec, PolicyRef, TopologyRef
from repro.workloads.suite import workload

PARAMS = (("swap_size", 4), ("quanta_length_s", 0.2))


def _task(**overrides) -> ExperimentSpec:
    base = dict(
        workload=WorkloadRef.from_spec(workload("wl2")),
        policy=PolicyRef("dike", PARAMS),
        seed=42,
        work_scale=0.1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestStability:
    def test_identical_specs_hash_equal(self):
        assert cache_key(_task()) == cache_key(_task())

    def test_key_is_independent_of_param_order(self):
        a = _task(policy=PolicyRef("dike", PARAMS))
        b = _task(policy=PolicyRef("dike", PARAMS[::-1]))
        assert cache_key(a) == cache_key(b)

    def test_key_is_a_sha256_hexdigest(self):
        key = cache_key(_task())
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_known_value_pins_the_canonical_form(self):
        """Golden key: fails iff the canonical fingerprint form changes.

        That is exactly when SCHEMA_VERSION must be bumped (a silent
        format change would alias old cache entries to new keys).
        """
        fp = task_fingerprint(_task())
        assert fp["schema_version"] == 1
        assert set(fp) == {
            "workload", "policy", "policy_params", "seed", "sim", "schema_version",
        }


class TestSensitivity:
    @pytest.mark.parametrize(
        "override",
        [
            {"policy": PolicyRef("dike-af", PARAMS)},
            {"seed": 43},
            {"policy": PolicyRef("dike", (("swap_size", 8),))},
            {"work_scale": 0.2},
            {"topology": TopologyRef("homogeneous")},
            {"counter_noise": 0.0},
            {"migration": (0.01, 2.0, 3.0)},
            {"workload": WorkloadRef.from_spec(workload("wl3"))},
        ],
    )
    def test_any_input_change_changes_the_key(self, override):
        assert cache_key(_task(**override)) != cache_key(_task())

    def test_schema_version_participates(self, monkeypatch):
        base = cache_key(_task())
        monkeypatch.setattr(cachekey, "SCHEMA_VERSION", 99)
        assert cache_key(_task()) != base

    def test_record_timeseries_is_excluded(self):
        """Tracing toggles recording, never dynamics — variants share a key."""
        with_trace = _task(record_timeseries=True)
        without = _task(record_timeseries=False)
        assert cache_key(with_trace) == cache_key(without)
