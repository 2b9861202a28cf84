"""Outside-in tracing of the simulator's layers.

The benchmark times each layer from the outside: :class:`Tracer` replaces
public functions and methods of the ``repro`` modules with wrappers that
record one span per call, and restores the originals on :meth:`uninstall`.
Nothing under ``src/`` knows about it.

A span is ``(name, start_ns, end_ns, span_id, parent_id, run_id)``.  The
parent is the innermost span open when the call began; the run id is
shared by every span of one executed campaign unit (a task or a batch),
and campaign-level spans carry the id of their gather.  A span's *self
time* is its duration minus the durations of its direct children, so the
self times of all spans add up to the duration of the root spans.

Span names are ``<layer>.<call>``; :data:`TIMERS` maps each per-layer
timer metric to the spans it sums.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from fnmatch import fnmatchcase
from pathlib import Path

import repro.policies  # noqa: F401  (defines every scheduler class `install` wraps)
from repro.campaign import Campaign, ResultStore
from repro.campaign import core as campaign_core
from repro.campaign import store as campaign_store
from repro.schedulers.base import Scheduler
from repro.schedulers.pipeline import StagePipeline
from repro.sim import batch as sim_batch
from repro.sim import engine as sim_engine
from repro.sim.batch import BatchEngine
from repro.sim.engine import SimulationEngine
from repro.sim.llc import LLCModel
from repro.sim.memory import MemorySystem
from repro.sim.state import SimState
from repro.traffic import TrafficWorkload
from repro.traffic import tracker as traffic_tracker
from repro.traffic.baseline import baseline_cache_stats
from repro.workloads.suite import WorkloadSpec

#: Dike stage names, flat and hierarchical (`StagePipeline.stages`).
DIKE_STAGES = (
    "observer", "selector", "predictor", "decider",
    "migrator", "optimizer", "cluster", "rebalancer",
)

#: timer metric -> (span name patterns whose self time it sums, unit,
#: denominator).
#: Denominators: ``quanta`` simulated, ``runs`` delivered, ``hits`` served
#: by the store, or the number of calls of the first span name.
TIMERS: dict[str, tuple[tuple[str, ...], str, str]] = {
    "campaign.self_ms_per_run": (("campaign.gather", "campaign.execute"), "ms", "runs"),
    "campaign.cache_key_us_per_task": (("campaign.cache_key",), "us", "calls"),
    "store.get_ms_per_hit": (("store.get",), "ms", "hits"),
    "store.put_ms_per_run": (("store.put",), "ms", "calls"),
    "serialize.decode_ms_per_hit": (("serialize.decode",), "ms", "calls"),
    "serialize.encode_ms_per_run": (("serialize.encode",), "ms", "calls"),
    "engine.self_us_per_q": (("engine.run",), "us", "quanta"),
    "engine.build_ms_per_run": (("engine.init", "engine.workload"), "ms", "calls"),
    "smt.us_per_q": (("smt.cycle_rates",), "us", "quanta"),
    "memory.solve_us_per_q": (("memory.solve", "memory.allocate"), "us", "quanta"),
    "state.us_per_q": (("state.*",), "us", "quanta"),
    "llc.resolve_us_per_q": (("llc.resolve",), "us", "quanta"),
    "batch.self_us_per_q": (("batch.run",), "us", "quanta"),
    "sched.decide_us_per_q": (("sched.decide",), "us", "quanta"),
    **{
        f"dike.{stage}_us_per_q": ((f"dike.{stage}",), "us", "quanta")
        for stage in DIKE_STAGES
    },
    "traffic.summarize_ms_per_run": (("traffic.summarize",), "ms", "calls"),
}

#: count metrics -> unit (values come from :meth:`Tracer.summary`).
COUNTS: dict[str, str] = {
    "campaign.hit_ratio": "fraction",
    "store.bytes_per_run": "B",
    "engine.quanta": "count",
    "memory.iters_per_solve": "count",
    "state.migrations": "count",
    "batch.lanes_per_unit": "count",
    "sched.decides": "count",
    "dike.pairs_proposed": "count",
    "dike.accept_ratio": "fraction",
    "traffic.solo_runs": "count",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> its unit, in report order."""
    units: dict[str, str] = {}
    for name, (_, unit, _) in TIMERS.items():
        units[name] = unit
        units[f"{name}.share"] = "fraction"
    units.update(COUNTS)
    return units


class _TimedStage:
    """A pipeline stage whose ``run`` records a ``dike.<stage>`` span."""

    def __init__(self, stage, tracer: "Tracer") -> None:
        self.stage = stage
        self.name = stage.name
        self.run = tracer.wrap(f"dike.{stage.name}", stage.run, self._count)

    def _count(self, tracer: "Tracer", args: tuple, out: object) -> None:
        state = args[1]
        if self.name == "selector":
            tracer.counts["pairs"] += len(state.pairs or ())
        elif self.name == "decider":
            tracer.counts["accepted"] += len(state.accepted or ())


class Tracer:
    """Records spans around the public calls of every simulator layer."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[tuple[int, int]] = []
        self._next_span = 1
        self._next_run = 1
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def wrap(self, name: str, fn, after=None, new_run: bool = False):
        """``fn`` wrapped to record a span ``name`` per call.

        ``after(tracer, args, result)`` runs once the span has closed, to
        read counts off the call without timing the reading.
        """
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent, run = stack[-1] if stack else (0, 0)
            if new_run or not stack:
                run = self._next_run
                self._next_run += 1
            stack.append((span_id, run))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent, run))
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str, after=None, new_run=False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after, new_run))

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every traced call site; :meth:`uninstall` restores them."""
        patch = self._patch
        count = self.counts.update
        # campaign
        patch(Campaign, "gather", "campaign.gather")
        patch(campaign_core, "cache_key", "campaign.cache_key")
        patch(campaign_core, "execute_task", "campaign.execute", new_run=True)
        patch(campaign_core, "execute_unit", "campaign.execute", new_run=True)
        # store and its serialisation
        patch(ResultStore, "get", "store.get",
              lambda t, a, out: count(hits=out is not None))
        patch(ResultStore, "put", "store.put",
              lambda t, a, out: count(bytes=out.stat().st_size))
        patch(campaign_store, "run_result_from_dict", "serialize.decode")
        patch(campaign_store, "run_result_to_full_dict", "serialize.encode")
        # engine and the physics it calls
        patch(SimulationEngine, "run", "engine.run",
              lambda t, a, out: count(quanta=out.n_quanta))
        patch(SimulationEngine, "__init__", "engine.init")
        patch(WorkloadSpec, "build", "engine.workload")
        patch(TrafficWorkload, "build", "engine.workload")
        patch(sim_engine, "smt_cycle_rates", "smt.cycle_rates")
        patch(MemorySystem, "solve", "memory.solve",
              lambda t, a, out: count(iterations=a[0].last_iterations))
        patch(sim_batch, "allocate_bandwidth", "memory.allocate")
        patch(sim_batch, "waterfill", "memory.allocate")
        for attr, fn in list(vars(SimState).items()):
            if not attr.startswith("_") and callable(fn):
                patch(SimState, attr, f"state.{attr}")
        for cls in _subclasses(LLCModel):
            if "resolve" in vars(cls):
                patch(cls, "resolve", "llc.resolve")
        patch(BatchEngine, "run", "batch.run",
              lambda t, a, out: count(quanta=sum(r.n_quanta for r in out),
                                      lanes=len(out)))
        # scheduling
        for cls in _subclasses(Scheduler):
            fn = vars(cls).get("decide")
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                patch(cls, "decide", "sched.decide")
        prepare = StagePipeline.prepare
        self._patches.append((StagePipeline, "prepare", prepare))
        tracer = self

        def prepare_timed(pipeline, context):
            prepare(pipeline, context)
            pipeline.stages = tuple(
                s if isinstance(s, _TimedStage) else _TimedStage(s, tracer)
                for s in pipeline.stages
            )

        StagePipeline.prepare = prepare_timed
        # traffic
        patch(traffic_tracker, "summarize_result", "traffic.summarize")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- summary

    def self_times(self) -> dict[int, int]:
        """span id -> self time in ns."""
        own = {s[3]: s[2] - s[1] for s in self.spans}
        for name, start, end, _, parent, _ in self.spans:
            if parent:
                own[parent] -= end - start
        return own

    def summary(self, wall_s: float, runs: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded over ``wall_s`` seconds
        of traced gathers that delivered ``runs`` results."""
        own = self.self_times()
        by_name: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for name, _, _, span_id, _, _ in self.spans:
            by_name[name] += own[span_id]
            calls[name] += 1
        c = self.counts
        denominators = {"quanta": c["quanta"], "runs": runs, "hits": c["hits"]}
        wall_ns = wall_s * 1e9
        out: dict[str, float] = {}
        for metric, (patterns, unit, per) in TIMERS.items():
            ns = sum(
                v for name, v in by_name.items()
                if any(fnmatchcase(name, p) for p in patterns)
            )
            denom = calls[patterns[0]] if per == "calls" else denominators[per]
            scale = {"ms": 1e-6, "us": 1e-3}[unit]
            out[metric] = ns * scale / denom if denom else 0.0
            out[f"{metric}.share"] = ns / wall_ns if wall_ns else 0.0
        roots_ns = sum(e - s for _, s, e, _, parent, _ in self.spans if not parent)
        lookups = calls["campaign.cache_key"]
        out.update({
            "campaign.hit_ratio": c["hits"] / lookups if lookups else 0.0,
            "store.bytes_per_run": c["bytes"] / calls["store.put"] if calls["store.put"] else 0.0,
            "engine.quanta": float(c["quanta"]),
            "memory.iters_per_solve": (
                c["iterations"] / calls["memory.solve"] if calls["memory.solve"] else 0.0
            ),
            "state.migrations": float(calls["state.migrate"]),
            "batch.lanes_per_unit": c["lanes"] / calls["batch.run"] if calls["batch.run"] else 0.0,
            "sched.decides": float(calls["sched.decide"]),
            "dike.pairs_proposed": float(c["pairs"]),
            "dike.accept_ratio": c["accepted"] / c["pairs"] if c["pairs"] else 0.0,
            "traffic.solo_runs": float(baseline_cache_stats()["misses"]),
            "trace.overhead_frac": overhead_frac,
            "trace.unattributed_frac": 1.0 - roots_ns / wall_ns if wall_ns else 0.0,
        })
        return out

    def write_spans(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "span_id", "parent_id", "run_id")
        with path.open("w") as fh:
            for span in sorted(self.spans, key=lambda s: s[1]):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out
