"""Output checks: every run the benchmark delivers is verified.

A run's fingerprint is the sha256 of its workload, policy, seed, quantum
count, swap and migration counts, makespan and every thread's finish time
(floats as ``repr``).  It pins the simulated behaviour bit for bit, so a
change that only speeds the simulator up leaves every fingerprint as it
was.

Fingerprints are committed for the default seed only
(``expected/<workload>.json``, label -> fingerprint).  Every seed is also
checked against references measured in the same process (the first
repeat, the cold gather a replay reads back, scalar runs of batched
specs) and against invariants any finished run satisfies.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def fingerprint(result) -> str:
    """sha256 of everything a run's outcome consists of."""
    doc = [
        result.workload_name,
        result.policy_name,
        result.seed,
        result.n_quanta,
        result.swap_count,
        result.migration_count,
        repr(result.makespan_s),
        [[repr(t) for t in b.thread_finish_times] for b in result.benchmarks],
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def sane(result) -> bool:
    """Invariants of any finished, untruncated run."""
    finish = [t for b in result.benchmarks for t in b.thread_finish_times]
    return (
        not result.info.get("truncated")
        and result.n_quanta > 0
        and all(math.isfinite(t) and 0.0 < t <= result.makespan_s for t in finish)
        and result.makespan_s == max(finish)
    )


def load_expected(workload: str, directory: Path = EXPECTED_DIR) -> dict[str, str]:
    path = directory / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def write_expected(workload: str, prints: dict[str, str], directory: Path = EXPECTED_DIR) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}.json"
    path.write_text(json.dumps(dict(sorted(prints.items())), indent=1) + "\n")
    return path
