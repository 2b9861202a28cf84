"""JSON-serialisable views of run results.

`RunResult` objects hold NumPy arrays and nested dataclasses; these
helpers flatten them into plain dict/list/float structures so experiment
outputs can be archived, diffed, or post-processed outside Python
(`json.dumps(run_result_to_dict(result))`).  Traces are summarised, not
dumped (a full per-quantum trace can be tens of MB — callers who need it
keep the live object).

Two flavours exist:

* **summary** (:func:`run_result_to_dict`) — human-oriented, includes
  derived metrics, drops raw prediction records; not invertible.
* **full** (:func:`run_result_to_full_dict` / :func:`run_result_from_dict`)
  — lossless modulo the trace, carries a ``schema_version`` field, and
  round-trips to a `RunResult` whose serialised form is byte-identical to
  the original's.  ``json.dumps(..., sort_keys=True, allow_nan=False)`` of
  the full dict is the wire format of the campaign result cache
  (`repro.campaign.store`), which writes that text with
  :func:`run_result_to_full_json_chunks` straight from the prediction
  log's columns; bump :data:`SCHEMA_VERSION` whenever the
  simulator or these structures change meaning, and every stale cache
  entry is automatically invalidated (the cache key hashes the version).
"""

from __future__ import annotations

import json
import math
import operator
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.metrics.fairness import benchmark_cv, fairness
from repro.metrics.prediction import error_summary
from repro.sim.results import BenchmarkResult, PredictionLog, RunResult

__all__ = [
    "SCHEMA_VERSION",
    "run_result_to_dict",
    "run_result_to_json",
    "run_result_to_full_dict",
    "run_result_to_full_json",
    "run_result_to_full_json_chunks",
    "run_result_from_dict",
    "run_result_from_json",
    "sweep_result_to_dict",
    "sweep_result_to_json",
    "sweep_result_from_dict",
    "sweep_result_from_json",
]

#: Version of the full (round-trippable) result schema.  Incorporated into
#: campaign cache keys, so bumping it orphans — rather than corrupts —
#: every previously cached artifact.
SCHEMA_VERSION = 1


def _clean(value: Any) -> Any:
    """Make a scalar JSON-safe (NaN/inf become None)."""
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def run_result_to_dict(result: RunResult, include_metrics: bool = True) -> dict:
    """Flatten a run result (and optionally its derived metrics)."""
    out: dict[str, Any] = {
        "workload": result.workload_name,
        "policy": result.policy_name,
        "seed": result.seed,
        "makespan_s": _clean(result.makespan_s),
        "n_quanta": result.n_quanta,
        "swap_count": result.swap_count,
        "migration_count": result.migration_count,
        "benchmarks": [
            {
                "group_id": b.group_id,
                "benchmark": b.benchmark,
                "arrival_s": _clean(b.arrival_s),
                "runtime_s": _clean(b.runtime),
                "thread_finish_times": [_clean(t) for t in b.thread_finish_times],
                "n_migrations": b.n_migrations,
            }
            for b in result.benchmarks
        ],
        "info": {
            k: (list(v) if isinstance(v, tuple) else _clean(v))
            for k, v in result.info.items()
        },
        "n_predictions": len(result.predictions),
    }
    if include_metrics:
        out["metrics"] = {
            "fairness": _clean(fairness(result)),
            "benchmark_cv": {
                k: _clean(v) for k, v in benchmark_cv(result).items()
            },
            "prediction_error": {
                k: _clean(v) for k, v in error_summary(result).items()
            },
        }
    return out


def run_result_to_json(result: RunResult, **kwargs: Any) -> str:
    """JSON string of :func:`run_result_to_dict` (stable key order)."""
    return json.dumps(run_result_to_dict(result, **kwargs), sort_keys=True)


# --------------------------------------------------------------------------
# Full (lossless, schema-versioned) round trip — the campaign cache format.
# --------------------------------------------------------------------------

def _enc(value: float) -> float | None:
    """Encode one float: non-finite becomes None (strict-JSON safe)."""
    v = float(value)
    return v if math.isfinite(v) else None


def _dec(value: float | None) -> float:
    return float("nan") if value is None else float(value)


def _enc_column(col: np.ndarray) -> list:
    """Encode one prediction column: ``None`` only where a value is
    non-finite (integer columns always are finite)."""
    values = col.tolist()
    if col.dtype.kind == "f" and not np.isfinite(col).all():
        return [v if math.isfinite(v) else None for v in values]
    return values


def _object(value: Any, what: str) -> dict:
    """``value`` if it is a JSON object, else ``ValueError``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} is a {type(value).__name__}, not a JSON object")
    return value


def _enc_seq(values: Iterable[float]) -> list[float | None]:
    return [_enc(v) for v in values]


def _dec_seq(values: Iterable[float | None]) -> tuple[float, ...]:
    # `_dec` inlined: every cache hit decodes each thread's finish time.
    return tuple([float("nan") if v is None else float(v) for v in values])


def _freeze(value: Any) -> Any:
    """Recursively turn JSON lists back into tuples (``info`` values)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    return value


def _fields(result: RunResult) -> dict:
    """Every field of the full document but ``predictions``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": result.workload_name,
        "policy": result.policy_name,
        "seed": result.seed,
        "makespan_s": _enc(result.makespan_s),
        "n_quanta": result.n_quanta,
        "swap_count": result.swap_count,
        "migration_count": result.migration_count,
        "benchmarks": [
            {
                "group_id": b.group_id,
                "benchmark": b.benchmark,
                "thread_finish_times": _enc_seq(b.thread_finish_times),
                "n_migrations": b.n_migrations,
                "arrival_s": _enc(b.arrival_s),
            }
            for b in result.benchmarks
        ],
        "info": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in result.info.items()
        },
    }


def run_result_to_full_dict(result: RunResult) -> dict:
    """Lossless dict of a run result (minus the trace, which is never
    serialised — rerun with ``record_timeseries=True`` if you need one).

    ``json.dumps(doc, sort_keys=True, allow_nan=False)`` of it is the
    text :func:`run_result_to_full_json` writes from the columns.
    """
    doc = _fields(result)
    doc["predictions"] = {
        name: _enc_column(col)
        for name, col in zip(PredictionLog.COLUMNS, result.predictions.columns())
    }
    return doc


def _log_chunks(log: PredictionLog) -> Iterator[str]:
    """The JSON text of the log's columns, as :func:`run_result_to_full_dict`
    lists them, written from the arrays.

    A value's text is the ``repr`` of its Python number, or ``null`` for
    a non-finite float, and each distinct value is formatted once.  The
    float columns share one table keyed by bit pattern, so ``-0.0``
    stays apart from ``0.0`` and every NaN is ``null``; the integer
    columns share another.  A column's cells are references into its
    table, so no column becomes Python numbers.
    """
    columns = dict(zip(PredictionLog.COLUMNS, log.columns()))
    cells: dict[str, np.ndarray] = {}
    for kind in "fi":
        group = {name: col for name, col in columns.items() if col.dtype.kind == kind}
        distinct, inverse = np.unique(
            np.concatenate([col.view(np.int64) for col in group.values()]),
            return_inverse=True,
        )
        values = distinct.view(np.float64) if kind == "f" else distinct
        table = np.array(list(map(repr, values.tolist())), dtype=object)
        if kind == "f":
            table[~np.isfinite(values)] = "null"
        for k, name in enumerate(group):
            cells[name] = table[inverse[k * len(log) : (k + 1) * len(log)]]
    sep = "{"
    for name in sorted(cells):
        yield f'{sep}"{name}": ['
        yield ", ".join(cells[name].tolist())
        yield "]"
        sep = ", "
    yield "}"


def run_result_to_full_json_chunks(result: RunResult) -> Iterator[str]:
    """The text of :func:`run_result_to_full_json`, in pieces to write
    one after another.

    Every field but the prediction log is ``json.dumps`` of its
    :func:`run_result_to_full_dict` value (sorted keys, no NaN, so a
    non-finite ``info`` value raises ``ValueError``); the log is written
    from its columns.  The pieces are made as they are taken, so a
    writer holds at most one column's text at a time.
    """
    fields = _fields(result)
    # The fixed fields sort into two non-empty halves around
    # "predictions"; the log goes where their texts meet.
    head = {k: v for k, v in fields.items() if k < "predictions"}
    tail = {k: v for k, v in fields.items() if k > "predictions"}
    yield json.dumps(head, sort_keys=True, allow_nan=False)[:-1] + ', "predictions": '
    yield from _log_chunks(result.predictions)
    yield ", " + json.dumps(tail, sort_keys=True, allow_nan=False)[1:]


def run_result_to_full_json(result: RunResult) -> str:
    """Strict-JSON string of the full dict (stable key order, no NaN)."""
    return "".join(run_result_to_full_json_chunks(result))


def _array(value: Any, what: str) -> list:
    """``value`` if it is a JSON array, else ``ValueError``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} is a {type(value).__name__}, not a JSON array")
    return value


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{type(value).__name__} is not a string")
    return value


def _decode(doc: Any, schema: dict[str, Callable[[Any], Any]], what: str) -> list:
    """``decode(doc[key])`` for each ``key: decode`` of ``schema``, in order.

    A ``doc`` that is not an object, a missing field, and a field its
    decoder rejects (``TypeError``, ``ValueError``, or ``OverflowError``
    for an integer too large for a float) each raise ``ValueError``
    naming the field (``what`` names ``doc``).
    """
    doc = _object(doc, what)
    out = []
    for key, decode in schema.items():
        try:
            value = doc[key]
        except KeyError:
            raise ValueError(f"{what} has no field {key!r}") from None
        try:
            out.append(decode(value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{what} field {key!r}: {exc}") from None
    return out


def _finish_times(value: Any) -> tuple[float, ...]:
    times = _dec_seq(_array(value, "thread_finish_times"))
    if not times:
        raise ValueError("a benchmark has at least one thread")
    return times


#: field -> decoder of one ``benchmarks`` entry, in BenchmarkResult's order
_BENCHMARK_FIELDS = {
    "group_id": operator.index,
    "benchmark": _str,
    "thread_finish_times": _finish_times,
    "n_migrations": operator.index,
    "arrival_s": _dec,
}


def _benchmarks(value: Any) -> tuple[BenchmarkResult, ...]:
    return tuple(
        BenchmarkResult(*_decode(b, _BENCHMARK_FIELDS, "benchmark"))
        for b in _array(value, "benchmarks")
    )


#: the log's columns, each passed to PredictionLog as it is
_COLUMN_FIELDS = dict.fromkeys(PredictionLog.COLUMNS, lambda column: column)


def _predictions(value: Any) -> PredictionLog:
    # PredictionLog raises ValueError naming a column that is not numbers.
    return PredictionLog(*_decode(value, _COLUMN_FIELDS, "predictions"))


def _info(value: Any) -> dict:
    return {k: _freeze(v) for k, v in _object(value, "info").items()}


#: field -> decoder of the document's fields but ``schema_version``, in
#: RunResult's order (``trace`` is never stored; ``info`` comes last)
_RESULT_FIELDS = {
    "workload": _str,
    "policy": _str,
    "seed": operator.index,
    "makespan_s": _dec,
    "n_quanta": operator.index,
    "benchmarks": _benchmarks,
    "swap_count": operator.index,
    "migration_count": operator.index,
    "predictions": _predictions,
    "info": _info,
}


def run_result_from_dict(data: dict) -> RunResult:
    """Inverse of :func:`run_result_to_full_dict`.

    Raises ``ValueError`` on a schema-version mismatch and on a document
    that is not a JSON object, lacks a field or holds one of the wrong
    type (naming the field), so callers (the cache) treat stale or
    damaged artifacts as misses instead of decoding garbage.  A field is
    checked as a whole, never value by value: the columns go to
    :class:`PredictionLog`, which rejects a non-number and columns that
    differ in length.
    """
    version = _object(data, "result").get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"result schema version {version!r} != expected {SCHEMA_VERSION}"
        )
    *fields, info = _decode(data, _RESULT_FIELDS, "result")
    return RunResult(*fields, trace=None, info=info)


def run_result_from_json(text: str) -> RunResult:
    return run_result_from_dict(json.loads(text))


def sweep_result_to_dict(sweep: "ConfigSweepResult") -> dict:
    """Lossless dict of a configuration-sweep result."""
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": sweep.workload,
        "workload_class": sweep.workload_class,
        "quanta_choices": list(sweep.quanta_choices),
        "swap_choices": list(sweep.swap_choices),
        "fairness_grid": [_enc_seq(row) for row in sweep.fairness_grid],
        "speedup_grid": [_enc_seq(row) for row in sweep.speedup_grid],
        "swap_count_grid": [_enc_seq(row) for row in sweep.swap_count_grid],
    }


def sweep_result_from_dict(data: dict) -> "ConfigSweepResult":
    """Inverse of :func:`sweep_result_to_dict` (same version contract as
    :func:`run_result_from_dict`)."""
    from repro.experiments.sweep import ConfigSweepResult

    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"sweep schema version {version!r} != expected {SCHEMA_VERSION}"
        )

    def grid(rows: list) -> np.ndarray:
        return np.array([[_dec(v) for v in row] for row in rows], dtype=np.float64)

    return ConfigSweepResult(
        workload=data["workload"],
        workload_class=data["workload_class"],
        quanta_choices=tuple(float(q) for q in data["quanta_choices"]),
        swap_choices=tuple(int(s) for s in data["swap_choices"]),
        fairness_grid=grid(data["fairness_grid"]),
        speedup_grid=grid(data["speedup_grid"]),
        swap_count_grid=grid(data["swap_count_grid"]),
    )


def sweep_result_to_json(sweep: "ConfigSweepResult") -> str:
    return json.dumps(sweep_result_to_dict(sweep), sort_keys=True, allow_nan=False)


def sweep_result_from_json(text: str) -> "ConfigSweepResult":
    return sweep_result_from_dict(json.loads(text))
