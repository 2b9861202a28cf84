"""Benches for the extension studies beyond the paper's own figures.

* **enforcement mechanisms** — §III-E's migration-vs-suspension argument,
  plus the a-priori-knowledge oracle upper bound;
* **open-system adaptation** — §III-F's motivation ("applications enter
  and leave the system"): adaptive Dike vs static configurations on a
  phase-shifting arrival trace.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.runner import run_workload
from repro.metrics.fairness import fairness
from repro.metrics.performance import speedup
from repro.policies import REGISTRY
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.oracle import OracleStaticScheduler
from repro.schedulers.suspension import SuspensionScheduler
from repro.util.tables import format_table
from repro.traffic import phased_workload
from repro.workloads.suite import workload

SCALE = 0.25


def test_enforcement_mechanisms(benchmark, save_artefact):
    """Migration (Dike) vs suspension vs oracle static, one workload per class."""

    def run():
        rows = []
        for wl_name in ("wl2", "wl9", "wl14"):
            spec = workload(wl_name)
            base = run_workload(spec, CFSScheduler(), work_scale=SCALE)
            for label, factory in (
                ("dike (migration)", REGISTRY.factory("dike")),
                ("suspension", SuspensionScheduler),
                ("oracle-static", OracleStaticScheduler),
            ):
                res = run_workload(spec, factory(), work_scale=SCALE)
                rows.append(
                    [
                        wl_name,
                        label,
                        fairness(res),
                        speedup(res, base),
                        res.swap_count,
                        res.info.get("suspension_count", 0),
                    ]
                )
        return rows

    rows = run_once(benchmark, run)
    save_artefact(
        "extension_enforcement",
        format_table(
            ["workload", "mechanism", "fairness", "speedup", "swaps", "suspensions"],
            rows,
            title="Enforcement mechanisms: migration vs suspension vs oracle",
        ),
    )
    by = {(r[0], r[1]): r for r in rows}
    for wl_name in ("wl2", "wl9", "wl14"):
        d = by[(wl_name, "dike (migration)")]
        s = by[(wl_name, "suspension")]
        o = by[(wl_name, "oracle-static")]
        # §III-E: suspension equalises without migrating but wastes cycles
        assert s[4] == 0 and s[5] > 0
        assert d[3] > s[3]  # Dike's performance beats suspension's
        # Dike approaches the cheating static optimum without a-priori info
        assert d[2] > 0.88 * o[2]


def test_open_system_adaptation(benchmark, save_artefact):
    """Adaptive Dike on a phase-shifting arrival trace."""

    def run():
        wl = phased_workload()
        base = run_workload(wl, CFSScheduler(), work_scale=SCALE)
        r_static = run_workload(wl, REGISTRY.build("dike"), work_scale=SCALE)
        r_ap = run_workload(wl, REGISTRY.build("dike-ap"), work_scale=SCALE)
        return {
            "dike": (fairness(r_static), speedup(r_static, base),
                     len(r_static.info["config_history"]) - 1),
            "dike-ap": (fairness(r_ap), speedup(r_ap, base),
                        len(r_ap.info["config_history"]) - 1),
        }

    out = run_once(benchmark, run)
    save_artefact(
        "extension_open_system",
        "\n".join(
            f"{name}: F={v[0]:.3f} S={v[1]:.3f} re-tunes={v[2]}"
            for name, v in out.items()
        ),
    )
    # the adaptive mode actually re-tunes on the shifting workload...
    assert out["dike-ap"][2] >= 1
    assert out["dike"][2] == 0
    # ...and converts that into performance (its goal)
    assert out["dike-ap"][1] >= out["dike"][1] - 0.02
