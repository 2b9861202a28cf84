"""The benchmark's workloads and the loop that measures one of them.

Every workload is a list of `repro.spec.ExperimentSpec`s gathered through
a serial `repro.campaign.Campaign` (one process, ``max_workers=1``, no
threads).  The load is closed-loop: one gather is submitted and waited
for, then the next.  ``--seed S`` shifts every engine seed and the
arrival-trace seed, so the same seed gives the same inputs.

Only the gathers are timed.  Building a store, checking results and
removing a store happen between the timed calls.  A repeat is a fixed
list of gathers ("units"); the same unit is timed once per repeat, and a
unit's fastest repeat is its least-disturbed time.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from checks import EXPECTED_DIR, fingerprint, load_expected, sane, write_expected
from repro.campaign import Campaign, ExecutorConfig, ResultStore, SimParams
from repro.metrics.fairness import fairness
from repro.sim.results import RunResult
from repro.spec import ExperimentSpec
from repro.traffic import TrafficSpec, solo_runtimes
from repro.workloads.suite import WorkloadSpec, all_workloads, workload
from tracing import Tracer, per_layer_units

#: The seed the committed fingerprints were measured at.
DEFAULT_SEED = 1
OUT_DIR = Path(__file__).resolve().parent / "out"
SERIAL = ExecutorConfig(max_workers=1)
#: Fewest timed repeats of one run.
MIN_REPEATS = 3

#: The paper's five policies of Figure 6, fixed here so the benchmark
#: does not move when the registry's tags do.
PAPER_POLICIES = ("cfs", "dio", "dike", "dike-af", "dike-ap")
#: Apps cycled to fill the 512-vcore machine (kmeans excluded: its
#: barriers make the live population depend on scheduling).
SCALE512_APPS = (
    "jacobi", "streamcluster", "stream_omp", "needle", "lavaMD",
    "leukocyte", "srad", "hotspot", "heartwall",
)


class Workload:
    """One benchmark workload: its specs and how a repeat gathers them."""

    name = ""
    why = ""
    #: gather through the batched engine
    batch = False
    #: repeats read the store filled during set-up instead of a fresh one
    replay = False

    def specs(self, seed: int, smoke: bool) -> list[ExperimentSpec]:
        raise NotImplementedError

    def units(self, specs: list[ExperimentSpec]) -> list[list[ExperimentSpec]]:
        """The gathers of one repeat: one spec each, as a closed-loop
        client submitting one experiment at a time would."""
        return [[spec] for spec in specs]

    def prepare(self, specs, workdir: Path, seed: int, update: bool) -> dict[str, str]:
        """Set-up beyond building specs; returns reference fingerprints
        (label -> fingerprint) that every repeat must reproduce."""
        return {}


class PaperGrid(Workload):
    name = "paper-grid"
    why = "the Fig. 6 grid (16 workloads x 5 policies) cold: every scalar-engine layer and Dike stage works"

    def specs(self, seed, smoke):
        sim = SimParams(work_scale=0.1)
        wls = all_workloads()[:1] if smoke else all_workloads()
        return [
            ExperimentSpec.for_workload(wl, policy, seed=seed, sim=sim)
            for wl in wls
            for policy in PAPER_POLICIES
        ]


class WarmReplay(PaperGrid):
    name = "warm-replay"
    why = "the paper grid read back from a filled store: only the campaign and store layers work"
    replay = True

    def units(self, specs):
        # Re-rendering a figure: the whole grid, 8 times, each gather
        # through a fresh campaign whose in-memory cache starts empty.
        return [specs] * 8

    def prepare(self, specs, workdir, seed, update):
        results = Campaign(store=ResultStore(workdir / "store"), executor=SERIAL).gather(specs)
        return {spec.label(): fingerprint(r) for spec, r in zip(specs, results)}


class BatchSeeds(Workload):
    name = "batch-seeds"
    why = "a 32-seed sweep through the batched engine: its flat kernels plus per-lane Dike decisions"
    batch = True

    def specs(self, seed, smoke):
        sim = SimParams(work_scale=0.15)
        return [
            ExperimentSpec.for_workload(workload(wl), policy, seed=seed + k, sim=sim)
            for wl in ("wl1", "wl7")
            for policy in ("cfs", "static", "dike")
            for k in range(4 if smoke else 32)
        ]

    def units(self, specs):
        # One gather per (workload, policy): its seeds form one batch.
        n = len({s.seed for s in specs})
        return [specs[i : i + n] for i in range(0, len(specs), n)]

    def prepare(self, specs, workdir, seed, update):
        # Scalar runs of the first seed of every (workload, policy) unit,
        # or of every spec when the fingerprints are being regenerated: a
        # batched run must reproduce its scalar run exactly.
        sample = specs if update else [s for s in specs if s.seed == seed]
        results = Campaign(executor=SERIAL).gather(sample)
        return {spec.label(): fingerprint(r) for spec, r in zip(sample, results)}


class PoissonLLC(Workload):
    name = "poisson-llc"
    why = "open-loop Poisson arrivals under the occupancy LLC: threads come and go, caches resolve, latency is summarised"

    work_scale = 0.3

    def traffic(self, seed: int) -> TrafficSpec:
        return TrafficSpec.at_rate(0.5, n_jobs=12, trace_seed=seed)

    def specs(self, seed, smoke):
        sim = SimParams(work_scale=self.work_scale, llc="occupancy")
        jobs = self.traffic(seed).workload()
        policies = ("cfs",) if smoke else ("cfs", "dike", "bliss")
        return [ExperimentSpec.for_traffic(jobs, p, seed=seed, sim=sim) for p in policies]

    def prepare(self, specs, workdir, seed, update):
        # The solo baselines every latency summary divides by.
        solo_runtimes(self.traffic(seed).workload().jobs, work_scale=self.work_scale, seed=seed)
        return {}


class Scale512Dike(Workload):
    name = "scale512-dike"
    why = "64 x 8 threads on the 512-vcore machine under flat and hierarchical Dike: scheduler decisions dominate"

    def specs(self, seed, smoke):
        spec = WorkloadSpec(
            name="scale512-mix",
            apps=tuple(SCALE512_APPS[i % len(SCALE512_APPS)] for i in range(64)),
            include_kmeans=False,
        )
        sim = SimParams(work_scale=0.25, topology="scale512", max_time_s=600.0)
        seeds = (seed,) if smoke else (seed, seed + 1)
        return [
            ExperimentSpec.for_workload(spec, policy, seed=s, sim=sim)
            for policy in ("dike", "dike-hier")
            for s in seeds
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperGrid(), WarmReplay(), BatchSeeds(), PoissonLLC(), Scale512Dike())
}


class Tally:
    """Checks every delivered run and counts what a repeat produced."""

    def __init__(self, references: dict[str, str], expected: dict[str, str] | None) -> None:
        self.references = dict(references)
        self.expected = expected
        self.prints: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.fairness_sum = self.makespan_sum = 0.0
        self.delivered = 0

    def check(self, specs, results) -> tuple[int, int]:
        """Check one gather's results; returns (runs delivered, quanta)."""
        runs = quanta = 0
        for spec, result in zip(specs, results):
            self.attempted += 1
            if not isinstance(result, RunResult):
                self.failed += 1
                continue
            label, fp = spec.label(), fingerprint(result)
            ok = sane(result) and self.references.setdefault(label, fp) == fp
            if self.expected is not None:
                ok = ok and self.expected.get(label) == fp
            self.failed += not ok
            self.prints[label] = fp
            self.fairness_sum += fairness(result)
            self.makespan_sum += result.makespan_s
            self.delivered += 1
            runs += 1
            quanta += result.n_quanta
        return runs, quanta


def run_repeat(w: Workload, specs, workdir: Path, tally: Tally) -> dict:
    """One timed repeat: every unit of ``w`` gathered by a fresh campaign."""
    store_dir = workdir / "store" if w.replay else Path(tempfile.mkdtemp(dir=workdir))
    walls, quanta, runs = [], [], 0
    for unit in w.units(specs):
        campaign = Campaign(store=ResultStore(store_dir), executor=SERIAL, batch=w.batch)
        start = time.perf_counter()
        results = campaign.gather(unit, strict=False)
        walls.append(time.perf_counter() - start)
        del campaign
        got = tally.check(unit, results)
        del results
        runs += got[0]
        quanta.append(got[1])
    if not w.replay:
        shutil.rmtree(store_dir)
    return {"walls": walls, "quanta": quanta, "runs": runs}


def repeat_until(w, specs, workdir, tally, seconds: float, at_least: int) -> list[dict]:
    repeats: list[dict] = []
    while len(repeats) < at_least or sum(sum(r["walls"]) for r in repeats) < seconds:
        repeats.append(run_repeat(w, specs, workdir, tally))
    return repeats


def best_wall(repeats: list[dict]) -> float:
    """Sum over units of each unit's fastest repeat."""
    return sum(min(walls) for walls in zip(*(r["walls"] for r in repeats)))


def measure(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 15.0,
    smoke: bool = False,
    trace: bool = False,
    setup_only: bool = False,
    update: bool = False,
    t0_ns: int | None = None,
    expected_dir: Path = EXPECTED_DIR,
) -> dict:
    """Set up workload ``name`` and measure it for ``seconds``.

    ``t0_ns`` is the ``time.monotonic_ns()`` at which the process was
    started; set-up time runs from it to the first timed gather.
    """
    t0_ns = time.monotonic_ns() if t0_ns is None else t0_ns
    w = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        workdir = Path(tmp)
        specs = w.specs(seed, smoke)
        references = w.prepare(specs, workdir, seed, update)
        setup_s = (time.monotonic_ns() - t0_ns) / 1e9
        if setup_only:
            return {"setup_s": setup_s}
        checked = seed == DEFAULT_SEED and not update
        tally = Tally(references, load_expected(name, expected_dir) if checked else None)
        report = {"setup_s": setup_s}
        if trace:
            report.update(traced(w, specs, workdir, tally, seconds))
        else:
            repeats = repeat_until(w, specs, workdir, tally, seconds, MIN_REPEATS)
            quanta = sum(repeats[0]["quanta"])
            report["quanta_per_s"] = quanta / best_wall(repeats)
            report["quanta_per_s_repeats"] = [quanta / sum(r["walls"]) for r in repeats]
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        fingerprints="updated" if update else "checked" if checked else "unchecked",
        sim_fairness_mean=tally.fairness_sum / max(tally.delivered, 1),
        sim_makespan_s=tally.makespan_sum / max(tally.delivered, 1),
    )
    if update:
        if tally.failed:
            raise RuntimeError(f"{name}: {tally.failed} runs failed; fingerprints not written")
        write_expected(name, tally.prints, expected_dir)
    return report


def traced(w: Workload, specs, workdir: Path, tally: Tally, seconds: float) -> dict:
    """Untraced repeats for half of ``seconds``, then one traced repeat.

    The per-layer numbers come from the traced repeat; the tracing
    overhead is its time over the median untraced repeat's.
    """
    plain = repeat_until(w, specs, workdir, tally, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        timed = run_repeat(w, specs, workdir, tally)
    finally:
        tracer.uninstall()
    wall = sum(timed["walls"])
    overhead = wall / statistics.median(sum(r["walls"]) for r in plain) - 1.0
    layers = tracer.summary(wall, timed["runs"], overhead)
    tracer.write_spans(OUT_DIR / f"{w.name}.spans.jsonl")
    summary_path = OUT_DIR / "layers.json"
    summaries = json.loads(summary_path.read_text()) if summary_path.is_file() else {}
    summaries[w.name] = {"traced_wall_s": wall, "spans": len(tracer.spans), "metrics": layers}
    summary_path.write_text(json.dumps(summaries, indent=1, sort_keys=True) + "\n")
    return {"layers": layers, "units": per_layer_units()}
