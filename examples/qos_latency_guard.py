#!/usr/bin/env python
"""Scenario: protecting a latency-sensitive service from noisy neighbours.

The paper's introduction motivates contention-aware scheduling with
quality-of-service: "unpredictability makes it difficult, or impossible,
for applications to provide quality-of-service guarantees".  This example
builds that scenario directly:

* a *service* (modelled by streamcluster — memory-bound request processing
  whose completion time is the QoS signal), co-located with
* a rotating cast of *batch neighbours* (compute and memory intensive),

and measures, per scheduler, the dispersion of the service's thread
runtimes (its predictability) and its slowdown versus running alone.

Run:  python examples/qos_latency_guard.py [work_scale]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import REGISTRY, run_standalone, run_workload
from repro.util.stats import coefficient_of_variation
from repro.util.tables import format_table
from repro.workloads.suite import WorkloadSpec

SERVICE = "streamcluster"

NEIGHBOUR_MIXES = {
    "compute-heavy": ("srad", "hotspot", "heartwall"),
    "memory-heavy": ("jacobi", "stream_omp", "needle"),
    "mixed": ("jacobi", "srad", "hotspot"),
}


def main() -> None:
    work_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2

    policies = ("cfs", "dio", "dike", "dike-af")

    rows = []
    for mix_name, neighbours in NEIGHBOUR_MIXES.items():
        spec = WorkloadSpec(
            name=f"qos-{mix_name}",
            apps=(SERVICE, *neighbours),
            include_kmeans=True,
        )
        solo = run_standalone(spec, SERVICE, work_scale=work_scale)
        t_solo = solo.benchmark_named(SERVICE).mean_thread_time

        for policy_name in policies:
            result = run_workload(
                spec, REGISTRY.build(policy_name), work_scale=work_scale
            )
            bench = result.benchmark_named(SERVICE)
            times = np.asarray(bench.thread_finish_times)
            rows.append(
                [
                    mix_name,
                    policy_name,
                    float(times.mean()) / t_solo,        # slowdown
                    coefficient_of_variation(times),      # (un)predictability
                    float(times.max() - times.min()),     # worst spread (s)
                ]
            )

    print(
        format_table(
            ["neighbours", "policy", "slowdown", "runtime cv", "spread (s)"],
            rows,
            title=(
                f"QoS view of the '{SERVICE}' service under co-location "
                f"(lower cv = more predictable)"
            ),
        )
    )
    print(
        "\nReading: under CFS the service's threads land on arbitrarily "
        "fast/slow, congested/idle cores, so its runtime cv (and hence its "
        "tail latency) explodes under memory-heavy neighbours; Dike "
        "restores predictability at a fraction of DIO's migrations."
    )


if __name__ == "__main__":
    main()
