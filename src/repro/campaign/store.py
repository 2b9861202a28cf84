"""On-disk, content-addressed result store.

Layout under the store root::

    objects/<key[:2]>/<key>.json    one full-fidelity RunResult each
    index.jsonl                     append-only metadata, one line per put

Artifacts are written atomically (a per-writer tmp file + ``os.replace``)
so a killed campaign never leaves a truncated object behind and two
campaigns sharing a store may write one key at once.  Objects get the
index's mode (``0o666`` less the umask), so a group that can read a
shared cache directory's index can read its objects too.  Reads validate the
schema version — a stale or undecodable artifact is a *miss*, never an
error.  The JSONL index exists for humans and tooling (``wc -l``, grep by
workload/policy); the objects directory alone is authoritative.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

# The store's codec.  ``run_result_to_full_dict`` is the dict form of what
# ``put`` writes; it stays importable from here for tools that wrap the
# codec by these names (bench/tracing.py).
from repro.experiments.serialization import (  # noqa: F401
    run_result_from_dict,
    run_result_to_full_dict,
    run_result_to_full_json_chunks,
)
from repro.sim.results import RunResult

if TYPE_CHECKING:
    from repro.spec import ExperimentSpec

__all__ = ["ResultStore"]


class ResultStore:
    """Cache of finished runs keyed by :func:`repro.campaign.cachekey.cache_key`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.objects = self.root / "objects"
        self.index_path = self.root / "index.jsonl"
        self.objects.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- lookup

    def _object_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._object_path(key).is_file()

    def get(self, key: str) -> RunResult | None:
        """The cached result for ``key``, or None (also on stale schema
        or a corrupt artifact — cache problems degrade to recomputation)."""
        path = self._object_path(key)
        if not path.is_file():
            return None
        try:
            return run_result_from_dict(json.loads(path.read_text()))
        except (ValueError, OSError):  # JSONDecodeError is a ValueError
            return None

    # -------------------------------------------------------------- write

    def put(
        self, key: str, result: RunResult, task: ExperimentSpec | None = None
    ) -> Path:
        """Persist one result atomically and append an index line.

        The volatile ``info["traffic"]["baseline_cache"]`` hit counters
        (process-history-dependent observability, not a property of the
        run) are stripped from the artifact so cached bytes stay
        deterministic across execution strategies and worker layouts.
        """
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        traffic = result.info.get("traffic")
        if isinstance(traffic, dict) and "baseline_cache" in traffic:
            traffic = {k: v for k, v in traffic.items() if k != "baseline_cache"}
            result = replace(result, info={**result.info, "traffic": traffic})
        size = 0
        fd, tmp = _create_tmp(path)
        try:
            with os.fdopen(fd, "w") as fh:
                for chunk in run_result_to_full_json_chunks(result):
                    size += fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        entry = {
            "key": key,
            "workload": result.workload_name,
            "policy": result.policy_name,
            "seed": result.seed,
            "n_quanta": result.n_quanta,
            "bytes": size,
        }
        if task is not None:
            entry["label"] = task.label()
        with self.index_path.open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return path

    # ------------------------------------------------------------- admin

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.objects.glob("*/*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.objects.glob("*/*.json"))


def _create_tmp(path: Path) -> tuple[int, Path]:
    """Open a new file beside ``path`` under a name only this writer
    uses, with mode ``0o666`` less the umask (``mkstemp`` would make it
    ``0o600``)."""
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
        try:
            return os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666), tmp
        except FileExistsError:
            continue
