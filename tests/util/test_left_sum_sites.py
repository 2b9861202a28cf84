"""Reported means add left to right on every interpreter.

From Python 3.12 the builtin ``sum`` compensates float rounding, so a
mean computed with it can differ from 3.11's in the last bit, and on
inputs like ``[1e16, 1.0, -1e16]`` by far more.  Each site below feeds a
reported number (the overhead fraction, the tuner's ranking score, the
tuning report, the campaign summary); each must equal the left-to-right
reference, whatever the interpreter.
"""

from __future__ import annotations

import itertools

import pytest

import repro.cli as cli
import repro.tune.driver as driver
import repro.tune.report as report
from repro.metrics.swaps import migration_overhead_fraction
from repro.sim.results import BenchmarkResult, RunResult
from repro.tune.driver import TuneConfig, Tuner
from repro.tune.report import build_tuning_report

#: 3.11 adds these to 0.0; a compensated sum finds 1.0
CANCELLING = [1e16, 1.0, -1e16]


def reference_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def reference_mean(values) -> float:
    return reference_sum(values) / len(values)


class FakeCampaign:
    """Returns one placeholder result per spec; fairness is patched."""

    def gather(self, specs, strict=True):
        return [object() for _ in specs]


@pytest.fixture
def fairness_values(monkeypatch):
    """Patch ``fairness`` in a module to return CANCELLING cyclically."""

    def patch(module):
        values = itertools.cycle(CANCELLING)
        monkeypatch.setattr(module, "fairness", lambda result: next(values))

    return patch


def test_migration_overhead_fraction():
    times = (*CANCELLING, 2.0)
    result = RunResult(
        workload_name="w",
        policy_name="dike",
        seed=1,
        makespan_s=3.0,
        n_quanta=4,
        benchmarks=(BenchmarkResult(0, "jacobi", times, 1),),
        swap_count=1,
        migration_count=3,
    )
    assert migration_overhead_fraction(result, 0.5) == 3 * 0.5 / reference_sum(times)


def test_tuner_score(fairness_values):
    fairness_values(driver)
    config = TuneConfig(workloads=("wl1",), eval_seeds=(1, 2, 3), budget=2)
    score = Tuner(FakeCampaign(), config).evaluate({})
    assert score == reference_mean(CANCELLING)


@pytest.mark.parametrize(
    "workloads, seeds, field",
    [
        (("wl1",), (1, 2, 3), "per-workload mean"),
        (("wl1", "wl2", "wl3"), (1,), "mean over workloads"),
    ],
)
def test_tuning_report(fairness_values, workloads, seeds, field):
    fairness_values(report)
    config = TuneConfig(workloads=workloads, eval_seeds=seeds, budget=2)
    doc = build_tuning_report(FakeCampaign(), config, {}, comparisons=())
    entry = next(iter(doc["entries"].values()))
    if field == "per-workload mean":
        assert entry["fairness_by_workload"]["wl1"] == reference_mean(CANCELLING)
    else:
        assert entry["mean_fairness"] == reference_mean(CANCELLING)


def test_campaign_summary(fairness_values, monkeypatch, capsys):
    fairness_values(cli)
    tables = []

    def capture(headers, rows, **kwargs):
        tables.append((headers, rows))
        return ""

    monkeypatch.setattr(cli, "format_table", capture)
    code = cli.main([
        "campaign", "--workloads", "wl1", "--policies", "cfs", "--seeds", "3",
        "--scale", "0.005", "--no-cache", "--workers", "1",
    ])
    assert code == 0
    (_, rows), = [t for t in tables if t[0][:2] == ["policy", "mean fairness"]]
    assert rows[0][1] == reference_mean(CANCELLING)
