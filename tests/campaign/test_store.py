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
from dataclasses import replace

import pytest

from repro.campaign.store import ResultStore
from repro.experiments.serialization import (
    run_result_to_full_dict,
    run_result_to_full_json,
)
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


class TestWrittenText:
    def test_artifact_is_the_standard_librarys_text_without_baseline_cache(self, tmp_path):
        traffic = {"n_jobs": 3, "latency_p50_s": 1.5, "baseline_cache": {"hits": 1, "misses": 2}}
        result = replace(small_result(), info={"policy": "dike", "traffic": traffic})
        store = ResultStore(tmp_path)
        path = store.put(KEY, result)
        assert result.info["traffic"] is traffic and "baseline_cache" in traffic
        doc = run_result_to_full_dict(result)
        doc["info"]["traffic"] = {k: v for k, v in traffic.items() if k != "baseline_cache"}
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
        assert path.read_text() == text
        (entry,) = [json.loads(line) for line in store.index_path.read_text().splitlines()]
        assert entry["bytes"] == len(text.encode()) == path.stat().st_size


class _FailsAfterFirstWrite:
    """A file whose second ``write`` fails, once the first chunk is in."""

    def __init__(self, fh, store: ResultStore) -> None:
        self.fh, self.store, self.writes = fh, store, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > 1:
            self.fh.flush()
            (tmp,) = self.store.objects.rglob("*.tmp")
            assert tmp.stat().st_size > 0  # torn: part of the text is on disk
            raise OSError("disk full")
        return self.fh.write(text)


class TestTornWrites:
    """A put that fails part-way leaves the key's previous artifact
    byte for byte, no tmp file and no index line."""

    @pytest.fixture
    def store(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        store.put(KEY, small_result())
        return store

    def unchanged(self, store: ResultStore, artifact: bytes, index: str) -> bool:
        return (
            store._object_path(KEY).read_bytes() == artifact
            and leftovers(store) == []
            and store.index_path.read_text() == index
        )

    def test_write_failing_after_the_first_chunk(self, store, monkeypatch):
        artifact = store._object_path(KEY).read_bytes()
        index = store.index_path.read_text()
        real_fdopen = os.fdopen
        files = []

        def fdopen(fd, mode):
            files.append(_FailsAfterFirstWrite(real_fdopen(fd, mode), store))
            return files[-1]

        monkeypatch.setattr(os, "fdopen", fdopen)
        with pytest.raises(OSError, match="disk full"):
            store.put(KEY, replace(small_result(), seed=4))
        assert files[0].writes == 2
        assert self.unchanged(store, artifact, index)

    def test_encoder_error_from_a_non_finite_info_value(self, store):
        artifact = store._object_path(KEY).read_bytes()
        index = store.index_path.read_text()
        bad = replace(small_result(), info={"policy": "dike", "score": float("nan")})
        with pytest.raises(ValueError, match="Out of range float"):
            store.put(KEY, bad)
        assert self.unchanged(store, artifact, index)


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
