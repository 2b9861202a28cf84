"""`ResultStore` at its boundary: damaged artifacts and concurrent writers.

The store promises that a stale or undecodable artifact is a miss, never
an error, and that a put is atomic.  Two campaigns sharing a cache
directory may put the same key at the same moment; both must succeed and
leave one whole artifact behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import stat
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaign.store import ResultStore
from repro.experiments.serialization import run_result_to_full_json
from repro.sim.results import BenchmarkResult, PredictionRecord, RunResult

KEY = "ab" + "0" * 62


def small_result() -> RunResult:
    return RunResult(
        workload_name="w",
        policy_name="dike",
        seed=3,
        makespan_s=2.5,
        n_quanta=5,
        benchmarks=(BenchmarkResult(0, "jacobi", (2.0, 2.5), 1),),
        swap_count=1,
        migration_count=2,
        predictions=tuple(
            PredictionRecord(0.2 * q, q, tid, 1.0 + q, 2.0 + tid)
            for q in range(4)
            for tid in range(2)
        ),
        info={"policy": "dike"},
    )


def put_many(root: str, n: int) -> int:
    """Worker: put the same key ``n`` times."""
    store = ResultStore(root)
    result = small_result()
    for _ in range(n):
        store.put(KEY, result)
    return n


def leftovers(store: ResultStore) -> list[str]:
    return sorted(p.name for p in store.objects.rglob("*.tmp"))


class TestDamagedArtifactsAreMisses:
    @pytest.mark.parametrize("text", ["[]", "null", "42", '"result"', "[{}]"])
    def test_valid_json_that_is_not_an_object(self, tmp_path, text):
        store = ResultStore(tmp_path)
        store.put(KEY, small_result())
        store._object_path(KEY).write_text(text)
        assert store.get(KEY) is None

    def test_ragged_prediction_columns(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY, small_result())
        doc = json.loads(path.read_text())
        doc["predictions"]["tid"] = doc["predictions"]["tid"][:-3]
        path.write_text(json.dumps(doc))
        assert store.get(KEY) is None

    def test_non_numeric_prediction_value(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY, small_result())
        doc = json.loads(path.read_text())
        doc["predictions"]["actual_rate"][0] = "fast"
        path.write_text(json.dumps(doc))
        assert store.get(KEY) is None


class TestConcurrentWriters:
    def test_writer_overtaken_by_another_writer_of_the_key(self, tmp_path, monkeypatch):
        """A second writer puts the key between the first writer's write
        and its rename; with a shared tmp name the first rename found no
        file and raised FileNotFoundError."""
        store = ResultStore(tmp_path)
        result = small_result()
        real_replace = os.replace
        overtaken = []

        def replace(src, dst):
            if not overtaken:
                overtaken.append(dst)
                store.put(KEY, result)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        store.put(KEY, result)
        assert overtaken
        assert store.get(KEY) is not None
        assert leftovers(store) == []
        assert len(store.index_path.read_text().splitlines()) == 2

    def test_failed_write_removes_its_tmp_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            store.put(KEY, small_result())
        assert leftovers(store) == []
        assert KEY not in store

    def test_processes_putting_one_key(self, tmp_path):
        """More writer processes than cores, one key: every put returns
        and one whole artifact remains."""
        workers, puts = 3, 25
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = [pool.submit(put_many, str(tmp_path), puts) for _ in range(workers)]
            assert [f.result(timeout=120) for f in futures] == [puts] * workers
        store = ResultStore(tmp_path)
        assert store.keys() == [KEY]
        assert leftovers(store) == []
        assert run_result_to_full_json(store.get(KEY)) == run_result_to_full_json(
            small_result()
        )
        assert len(store.index_path.read_text().splitlines()) == workers * puts


class TestArtifactMode:
    def test_artifact_mode_follows_the_umask_like_the_index(self, tmp_path):
        """A shared cache directory: whoever can read the index can read
        the objects (mkstemp made them 0o600)."""
        old = os.umask(0o022)
        try:
            store = ResultStore(tmp_path)
            path = store.put(KEY, small_result())
        finally:
            os.umask(old)
        mode = stat.S_IMODE(path.stat().st_mode)
        assert mode == stat.S_IMODE(store.index_path.stat().st_mode) == 0o644
