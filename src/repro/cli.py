"""Command-line interface: ``dike-repro`` / ``python -m repro``.

Subcommands
-----------
``list``
    Show all regenerable experiments.
``policies|topologies [--json|--names|--check|--tag T]``
    Show every registered policy (the `repro.policies` registry) or
    machine preset (the `repro.topologies` registry) with its parameter
    schema and defaults, plus each policy's invariant contract or each
    machine's shape.  Both verbs share one listing and one ``--check``:
    every factory builds, defaults pass their own schema, aliases
    resolve, ``describe()`` is JSON-clean, plus each verb's own rules
    (a policy's scheduler name and contract, a machine's socket
    tables); exit 1 on drift — the CI policy-matrix and scaling-smoke
    gates.
``run <experiment-id> [--scale S] [--seed N]``
    Regenerate one table/figure and print its plain-text render.
``compare <workload> [--scale S] [--seed N]``
    Run the five standard policies on one workload and print a summary.
``report [--scale S] [--seed N]``
    Run the full Figure 6 evaluation and print the shape-checklist report.
``replicate <workload> [--seeds N] [--scale S]``
    Multi-seed robustness summary of the five policies on one workload.
``timeline <workload> <policy> [--scale S]``
    ASCII placement timeline + swap-activity sparkline for one run.
``all [--scale S] [--seed N]``
    Regenerate every experiment (the full evaluation; slow at scale 1.0).
``campaign [--workloads ...] [--policies ...] [--sweep] [--workers N] ...``
    Run an experiment grid through the campaign subsystem: parallel
    workers, content-addressed result cache, retries, telemetry.  A rerun
    resumes from the cache (``--dry-run`` shows the plan without running).
``trace <workload> [--policy P] [--trace-out T.jsonl] [--chrome T.json] ...``
    Run one workload with full observability (wired via
    ``repro.obs.attach``): structured JSONL event trace, Chrome
    ``trace_event`` export (open in chrome://tracing), live invariant
    checking against the policy's contract and a metrics summary.
``trace-diff <a.jsonl> <b.jsonl> [--json]``
    Align two traces end-to-end (LCS over quantum groups) and report
    *every* divergent region with per-event-kind counts and a field-level
    drill-down — the determinism debugging tool.  Exit 0 identical,
    1 divergent, 2 on error (including mismatched trace schema versions).
    ``--json`` prints the structured `DivergenceReport` document.
``bench [--quick] [--out B.json] [--baseline B.json] [--threshold F]``
    Measure engine throughput (quanta/second) over the tracked benchmark
    suite (`repro.benchmarking`).  With ``--baseline`` the run fails
    (exit 1) if any case regresses beyond the threshold — the CI
    perf-smoke gate against the committed ``BENCH_engine.json``.
``traffic [--processes P,..] [--rate R,..] [--policy P,..] [--jobs N] ...``
    Open-loop load sweeps (`repro.traffic`): cross arrival processes ×
    rates × policies, run each cell through the campaign subsystem
    (cached, parallel) and report p50/p95/p99 job slowdown, throughput
    and queue depth per cell.  ``--out`` writes the JSON report,
    ``--emit-traces DIR`` additionally writes each generated job trace.
``tune [--strategy ga|halving] [--budget N] [--search-seed N] ...``
    Offline parameter search (`repro.tune`): optimise a policy's
    ⟨swap_size, quanta_length_s, θ_f⟩ (or ``--tunables``) for mean
    Eqn. 4 fairness, every candidate evaluated through the campaign
    cache (reruns resume; same ``--search-seed`` + budget ⇒ identical
    artifact).  Writes a tuned-policy JSON artifact (``--out``) and
    optionally the tuned-static vs paper-adaptive vs default-static
    comparison report (``--report``).  See docs/tuning.md.

Shared flags (see docs/README.md): ``run``/``report``/``all``/
``campaign``/``bench``/``trace`` uniformly accept ``--quick`` (smoke
settings), ``--workers``, ``--cache-dir``, ``--trace-out`` and
``--invariants``; ``run``/``timeline``/``trace``/``campaign``/
``traffic``/``bench`` additionally accept ``--topology
NAME[:K=V,...]``, resolved through the topology registry (``repro
topologies`` lists the presets).  ``campaign``/``traffic``/``tune``
always run through a campaign: they share ``--no-cache``,
``--timeout``, ``--retries``, ``--events``, ``--verbose``, ``--llc`` and
``--batch`` (and ``--dry-run`` on the first two), and default to 2
workers and the ``.campaign`` cache.  Verbs that always run in-process
(``bench``, ``trace``) note ignored backend flags on stderr rather than
erroring, and the paper-pinned experiment verbs (``run``) likewise note
a non-default ``--topology`` instead of failing.  Workload and policy
positionals take their choices from the registries, and counts below 1
are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Mapping

from repro.experiments.registry import EXPERIMENTS, list_experiments, run_experiment
from repro.experiments.runner import run_policies
from repro.metrics.fairness import fairness
from repro.metrics.performance import speedup
from repro.util.rng import DEFAULT_SEED
from repro.util.stats import left_sum
from repro.util.tables import format_table
from repro.workloads.suite import WORKLOAD_TABLE, workload

__all__ = ["main", "build_parser"]

#: Default location of the on-disk campaign cache.
DEFAULT_CACHE_DIR = ".campaign"


#: --quick scales runs down to this work scale (except ``bench``, where
#: it selects the smoke benchmark subset instead).
QUICK_SCALE = 0.05


def _count(raw: str) -> int:
    """argparse type of a count flag: an int >= 1."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return value


def _common_parent() -> argparse.ArgumentParser:
    """Shared run-shape flags: every simulating verb accepts these."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("common options")
    g.add_argument(
        "--scale", type=float, default=None,
        help="work scale (default: 1.0 paper-sized runs; "
             f"{QUICK_SCALE} with --quick)",
    )
    g.add_argument("--seed", type=int, default=DEFAULT_SEED)
    g.add_argument(
        "--quick", action="store_true",
        help=f"smoke settings: work scale {QUICK_SCALE} "
             "(bench: the CI smoke benchmark subset)",
    )
    return p


def _backend_parent() -> argparse.ArgumentParser:
    """Shared campaign-backend flags (uniform across the heavy verbs)."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("campaign backend options")
    g.add_argument(
        "--workers", type=_count, default=1,
        help="parallel simulation workers (default: %(default)s; "
             "1 = in-process serial)",
    )
    g.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default: %(default)s)",
    )
    g.add_argument(
        "--trace-out", default=None,
        help="JSONL event-trace output: the trace file for the trace "
             "verb, a per-executed-task trace directory elsewhere",
    )
    g.add_argument(
        "--invariants", action="store_true",
        help="attach the per-policy invariant contract to every "
             "simulation (counts land in campaign telemetry)",
    )
    return p


def _campaign_run_parent(dry_run: bool) -> argparse.ArgumentParser:
    """Flags of the verbs that always run through a campaign
    (``campaign``, ``traffic``, ``tune``); ``--dry-run`` where the verb
    has a plan to show."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("campaign run options")
    if dry_run:
        g.add_argument(
            "--dry-run", action="store_true",
            help="print the plan (task counts, dedup, cache state) and exit",
        )
    g.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result cache (still dedups in memory)",
    )
    g.add_argument(
        "--timeout", type=float, default=None,
        help="per-task timeout in seconds (default: none)",
    )
    g.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per failing task (default: 2)",
    )
    g.add_argument(
        "--events", default=None,
        help="events JSONL path (default: <cache-dir>/events.jsonl)",
    )
    g.add_argument(
        "--verbose", action="store_true",
        help="one progress line per task instead of ~1/second",
    )
    g.add_argument(
        "--llc", default=None, choices=("null", "occupancy"),
        help="shared-LLC model (default: null — no cache modelling)",
    )
    g.add_argument(
        "--batch", action="store_true",
        help="group compatible tasks into multi-run batches for the "
             "vectorized engine (identical results and cache bytes)",
    )
    return p


def _topology_parent() -> argparse.ArgumentParser:
    """Shared machine-model flag, resolved via the topology registry."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("machine options")
    g.add_argument(
        "--topology", default="heterogeneous", metavar="NAME[:K=V,...]",
        help="machine preset from the topology registry, with optional "
             "parameter overrides (e.g. scale256 or "
             "multi-socket:n_sockets=8,smt=1); `repro topologies` lists "
             "the presets (default: heterogeneous, the paper machine)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    from repro.policies import REGISTRY

    parser = argparse.ArgumentParser(
        prog="dike-repro",
        description=(
            "Reproduction of 'Providing Fairness in Heterogeneous Multicores "
            "with a Predictive, Adaptive Scheduler' (IPPS 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()
    backend = _backend_parent()
    machine = _topology_parent()
    workloads = dict(choices=tuple(WORKLOAD_TABLE), metavar="workload",
                     help="wl1 .. wl16")

    def campaign_verb(name: str, help: str, dry_run: bool = True):
        # A backend parent of its own: set_defaults rewrites the defaults
        # of the parent's (shared) argument objects.
        p = sub.add_parser(
            name, help=help,
            parents=[common, _backend_parent(), machine,
                     _campaign_run_parent(dry_run)],
        )
        p.set_defaults(workers=2, cache_dir=DEFAULT_CACHE_DIR)
        return p

    sub.add_parser("list", help="list regenerable experiments")

    for verb, registry, columns, _ in _registry_verbs():
        kind, plural = registry.error.kind, registry.error.plural
        tags = sorted({t for s in registry for t in s.tags})
        p_reg = sub.add_parser(
            verb,
            help=f"list registered {plural} "
                 f"({', '.join(header for header, _ in columns[1:-1])})",
        )
        p_reg.add_argument(
            "--json", action="store_true",
            help="print the full registry as a JSON document",
        )
        p_reg.add_argument(
            "--names", action="store_true",
            help=f"print canonical {kind} names only, one per line "
                 "(scripting)",
        )
        p_reg.add_argument(
            "--check", action="store_true",
            help="validate the registry (factories build, schemas "
                 "round-trip, aliases resolve, describe() is JSON-clean, "
                 f"plus the {kind} checks); exit 1 on drift",
        )
        p_reg.add_argument(
            "--tag", default=None,
            help=f"only show {plural} carrying this tag "
                 f"(one of {', '.join(tags)})",
        )

    p_run = sub.add_parser(
        "run", help="regenerate one experiment",
        parents=[common, backend, machine],
    )
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS))

    p_cmp = sub.add_parser(
        "compare", help="compare policies on one workload", parents=[common]
    )
    p_cmp.add_argument("workload", **workloads)

    p_rep = sub.add_parser(
        "report", help="full evaluation + shape checklist",
        parents=[common, backend],
    )
    p_rep.add_argument(
        "--seeds", type=_count, default=1,
        help="average the evaluation over this many seeds",
    )

    p_repl = sub.add_parser(
        "replicate", help="multi-seed robustness check", parents=[common]
    )
    p_repl.add_argument("workload", **workloads)
    p_repl.add_argument("--seeds", type=_count, default=3, help="number of seeds")

    p_tl = sub.add_parser(
        "timeline", help="placement timeline of one run",
        parents=[common, machine],
    )
    p_tl.add_argument("workload", **workloads)
    p_tl.add_argument(
        "policy", choices=REGISTRY.names(), help="scheduling policy"
    )

    sub.add_parser(
        "all", help="regenerate every experiment", parents=[common, backend]
    )

    p_trace = sub.add_parser(
        "trace", help="run one workload with full observability",
        parents=[common, backend, machine],
    )
    p_trace.add_argument("workload", **workloads)
    p_trace.add_argument(
        "--policy", default="dike", metavar="NAME[:K=V,...]",
        help="scheduling policy with optional parameter overrides "
             "(e.g. dike-hier:n_clusters=1); `repro policies` lists the "
             "registry (default: dike)",
    )
    p_trace.add_argument(
        "--out", default=None,
        help="alias of --trace-out (default: trace.jsonl)",
    )
    p_trace.add_argument(
        "--chrome", default=None,
        help="also export a Chrome trace_event JSON to this path",
    )
    p_trace.add_argument(
        "--max-bytes", type=_count, default=None,
        help="rotate the JSONL file beyond this size (default: never)",
    )
    p_trace.add_argument(
        "--no-invariants", action="store_true",
        help="skip runtime invariant checking",
    )
    p_trace.add_argument(
        "--strict", action="store_true",
        help="abort on the first invariant violation",
    )
    p_trace.add_argument(
        "--llc", default=None, choices=("null", "occupancy"),
        help="shared-LLC model (default: null — no cache modelling)",
    )

    p_td = sub.add_parser(
        "trace-diff", help="full divergence analysis between two traces"
    )
    p_td.add_argument("trace_a", help="first JSONL trace")
    p_td.add_argument("trace_b", help="second JSONL trace")
    p_td.add_argument(
        "--json", action="store_true",
        help="print the structured DivergenceReport as JSON",
    )
    p_td.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation while loading",
    )

    p_bench = sub.add_parser(
        "bench", help="engine throughput benchmark + regression check",
        parents=[common, backend, machine],
    )
    p_bench.add_argument(
        "--repeats", type=_count, default=3,
        help="timed runs per case, best kept (default: 3)",
    )
    p_bench.add_argument(
        "--out", default=None,
        help="write the JSON report to this path (e.g. BENCH_engine.json)",
    )
    p_bench.add_argument(
        "--baseline", default=None,
        help="compare against this report and exit 1 on regression",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=None,
        help="relative quanta/s drop that counts as a regression "
             "(default: 0.30)",
    )
    p_bench.add_argument(
        "--json", action="store_true",
        help="print the full report document as JSON on stdout "
             "(instead of the text tables)",
    )
    p_bench.add_argument(
        "--batched", action="store_true",
        help="also run the batched-engine suite (N-run grids through "
             "repro.sim.batch vs serial scalar) and ratchet it",
    )
    p_bench.add_argument(
        "--scaling", action="store_true",
        help="also run the scaling suite (scheduler overhead per quantum, "
             "flat dike vs dike-hier, 40 -> 512 vcores) and ratchet it",
    )

    p_tr = campaign_verb(
        "traffic",
        help="open-loop arrival sweeps: process x rate x policy with "
             "tail-latency metrics",
    )
    p_tr.add_argument(
        "--processes", default="poisson,bursty,diurnal",
        help="comma-separated arrival processes "
             "(poisson, bursty, diurnal, fixed)",
    )
    p_tr.add_argument(
        "--rate", default="0.2",
        help="comma-separated arrival rates in jobs/s at work scale 1 "
             "(arrival times scale with --scale, like job lengths)",
    )
    p_tr.add_argument(
        "--policy", "--policies", dest="policies", default="cfs,dio,dike",
        help="comma-separated open-loop policies (default: cfs,dio,dike)",
    )
    p_tr.add_argument(
        "--jobs", type=_count, default=16, help="jobs per generated trace"
    )
    p_tr.add_argument(
        "--threads-per-job", type=_count, default=8,
        help="threads per job (default: 8, the paper's instance size)",
    )
    p_tr.add_argument(
        "--trace-seed", type=int, default=0,
        help="seed of the arrival sampling (the engine seed is --seed)",
    )
    p_tr.add_argument(
        "--seeds", type=_count, default=1,
        help="number of engine seeds per cell (seed, seed+1, ...)",
    )
    p_tr.add_argument(
        "--out", default=None, help="write the JSON traffic report here"
    )
    p_tr.add_argument(
        "--emit-traces", default=None, metavar="DIR",
        help="write each generated job trace (schema-versioned JSONL) "
             "into DIR",
    )

    p_camp = campaign_verb(
        "campaign", help="parallel, cached, fault-tolerant experiment grids"
    )
    p_camp.add_argument(
        "--workloads", default=None,
        help="comma-separated workload names (default: all 16)",
    )
    p_camp.add_argument(
        "--policies", default=None,
        help="comma-separated policy names (default: the paper's five)",
    )
    p_camp.add_argument(
        "--seeds", type=_count, default=1,
        help="number of seeds per grid cell (seed, seed+1, ...)",
    )
    p_camp.add_argument(
        "--sweep", action="store_true",
        help="also cross every workload with the 32-point config sweep",
    )
    p_camp.add_argument(
        "--param", action="append", default=None, metavar="KEY=V1[,V2...]",
        help="declarative parameter grid: repeatable; crosses every "
             "policy whose schema has all grid keys with the cartesian "
             "product (e.g. --param swap_size=4,8 "
             "--param fairness_threshold=0.05,0.1); a key given twice or "
             "in no policy's schema is an error",
    )

    p_tune = campaign_verb(
        "tune",
        help="offline parameter search over the campaign backend: emit "
             "a tuned policy artifact + comparison report",
        dry_run=False,
    )
    p_tune.add_argument(
        "--policy", default="dike",
        help="registry policy whose parameters are searched "
             "(default: dike — non-adaptive, the tuned-static candidate)",
    )
    p_tune.add_argument(
        "--strategy", choices=("ga", "halving"), default="ga",
        help="search strategy: seeded GA (tournament+mutation) or "
             "successive halving (quick-scale rungs promote to full "
             "scale); default: ga",
    )
    p_tune.add_argument(
        "--budget", type=_count, default=24,
        help="distinct candidate evaluations the search may spend "
             "(cache hits make revisits free); default: 24",
    )
    p_tune.add_argument(
        "--search-seed", type=int, default=0,
        help="seed of the search RNG (same seed + budget => identical "
             "artifact); the engine seed stays --seed",
    )
    p_tune.add_argument(
        "--workloads", default=None,
        help="comma-separated evaluation workloads (default: all 16)",
    )
    p_tune.add_argument(
        "--seeds", type=_count, default=1,
        help="engine seeds per evaluation cell (seed, seed+1, ...)",
    )
    p_tune.add_argument(
        "--tunables", default=None,
        help="comma-separated parameters to search (default: "
             "swap_size,quanta_length_s,fairness_threshold)",
    )
    p_tune.add_argument(
        "--population", type=_count, default=8,
        help="GA population size (default: 8)",
    )
    p_tune.add_argument(
        "--eta", type=_count, default=2,
        help="halving promotion factor (default: 2)",
    )
    p_tune.add_argument(
        "--out", default=None,
        help="tuned-policy artifact path (default: tuned_<policy>.json)",
    )
    p_tune.add_argument(
        "--report", default=None,
        help="also write the tuned-static vs paper-adaptive vs "
             "default-static comparison report (JSON) here",
    )
    p_tune.add_argument(
        "--compare", default="dike-af,dike-lms",
        help="extra report entries at registry defaults "
             "(default: dike-af,dike-lms)",
    )
    p_tune.add_argument(
        "--stats", default=None,
        help="write campaign execution statistics (executed, cache hits) "
             "as JSON here — kept out of the artifact so reruns stay "
             "byte-identical",
    )
    return parser


def _topology(args: argparse.Namespace):
    """The shared ``--topology`` flag as a `repro.spec.TopologyRef` under
    its canonical name (aliases resolved, parameters validated against
    the preset's schema).  Raises ``ValueError`` (including
    ``UnknownTopologyError``) on bad input."""
    from repro.spec import TopologyRef

    ref = TopologyRef.from_arg(args.topology)
    return TopologyRef(ref.spec.name, ref.params)


def _note_pinned_topology(args: argparse.Namespace) -> None:
    """Paper-experiment verbs accept but ignore a non-default topology."""
    topo = _topology(args)
    if topo.name != "heterogeneous" or topo.params:
        print(
            f"note: {args.command} regenerates paper artefacts pinned to "
            "the paper machine; --topology ignored",
            file=sys.stderr,
        )


def _resolve_shared_flags(args: argparse.Namespace) -> None:
    """Fill in the context-dependent defaults of the shared flags."""
    if getattr(args, "scale", "absent") is None:
        args.scale = QUICK_SCALE if getattr(args, "quick", False) else 1.0


def _note_inprocess_flags(args: argparse.Namespace) -> None:
    """Verbs that always run in-process accept but ignore backend flags."""
    ignored = [
        flag
        for flag, value in (
            ("--workers", getattr(args, "workers", 1) > 1),
            ("--cache-dir", getattr(args, "cache_dir", None)),
        )
        if value
    ]
    if ignored:
        print(
            f"note: {args.command} always runs in-process; "
            f"{', '.join(ignored)} ignored",
            file=sys.stderr,
        )


def _make_campaign(args: argparse.Namespace):
    """The Campaign the CLI flags describe."""
    from repro.campaign import Campaign, ExecutorConfig, ResultStore, Telemetry

    cache_dir = None if getattr(args, "no_cache", False) else args.cache_dir
    events = getattr(args, "events", None)
    if events is None and cache_dir is not None:
        events = f"{cache_dir}/events.jsonl"
    return Campaign(
        store=ResultStore(cache_dir) if cache_dir else None,
        executor=ExecutorConfig(
            max_workers=args.workers,
            timeout_s=getattr(args, "timeout", None),
            retries=getattr(args, "retries", 2),
        ),
        telemetry=Telemetry(
            events_path=events,
            stream=sys.stderr,
            verbose=getattr(args, "verbose", False),
        ),
        invariants=args.invariants,
        trace_dir=args.trace_out,
        batch=getattr(args, "batch", False),
    )


def _cmd_list() -> int:
    print(format_table(["id", "title"], list_experiments()))
    return 0


def _defaults_cell(spec) -> str:
    return ", ".join(f"{p.name}={p.default}" for p in spec.params) or "-"


def _shape_cell(spec) -> str:
    built = spec.build()
    return f"{built.n_sockets}s/{built.n_vcores}v" + (
        " het" if built.is_heterogeneous else ""
    )


def _policy_problems(spec, scheduler):
    """The policy-only ``--check`` rules: the built scheduler's name and
    the invariant contract, as the invariant checker resolves it."""
    from repro.obs.invariants import RULES, InvariantSink

    if scheduler.name != spec.name and scheduler.name not in spec.aliases:
        yield (
            f"built scheduler reports name {scheduler.name!r}, "
            "which is neither the policy name nor a declared alias"
        )
    unknown_rules = set(spec.invariants) - set(RULES)
    if unknown_rules:
        yield f"unknown invariant rule(s) {sorted(unknown_rules)}"
    if not spec.invariants:
        yield "empty invariant contract"
    try:
        sink = InvariantSink.for_policy(spec.name)
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        yield f"for_policy failed: {exc}"
    else:
        if sink.rules != spec.invariants:
            yield (
                f"for_policy rules {sink.rules} drifted from the spec "
                f"contract {spec.invariants}"
            )


def _topology_problems(spec, machine):
    """The topology-only ``--check`` rules: the built machine has vcores
    and its socket tables cover every one."""
    if machine.n_vcores < 1:
        yield "built machine has no vcores"
    covered = sum(
        len(machine.vcores_on_socket(sid)) for sid in range(machine.n_sockets)
    )
    if covered != machine.n_vcores:
        yield (
            f"socket tables cover {covered} vcores, machine has "
            f"{machine.n_vcores}"
        )


def _registry_verbs():
    """``(verb, registry, table columns, the verb's own --check rules)``
    of the two registry-listing verbs; each column is (header, cell)."""
    from repro.policies import REGISTRY
    from repro.topologies import TOPOLOGY_REGISTRY

    return (
        ("policies", REGISTRY, (
            ("policy", lambda s: s.name),
            ("tags", lambda s: ",".join(s.tags) or "-"),
            ("parameters (defaults)", _defaults_cell),
            ("invariant contract", lambda s: ",".join(s.invariants) or "-"),
            ("description", lambda s: s.doc),
        ), _policy_problems),
        ("topologies", TOPOLOGY_REGISTRY, (
            ("topology", lambda s: s.name),
            ("tags", lambda s: ",".join(s.tags) or "-"),
            ("shape", _shape_cell),
            ("parameters (defaults)", _defaults_cell),
            ("description", lambda s: s.doc),
        ), _topology_problems),
    )


def _cmd_registry(args: argparse.Namespace) -> int:
    """``repro policies`` / ``repro topologies``: list a registry, or
    check it with ``--check``."""
    import json

    _, registry, columns, own_problems = next(
        v for v in _registry_verbs() if v[0] == args.command
    )
    kind, plural = registry.error.kind, registry.error.plural
    if args.check:
        return _check_registry(registry, own_problems)
    specs = list(registry)
    if args.tag is not None:
        specs = list(registry.tagged(args.tag))
        if not specs:
            known = sorted({t for s in registry for t in s.tags})
            print(
                f"error: no {kind} carries tag {args.tag!r}; "
                f"known tags: {', '.join(known)}",
                file=sys.stderr,
            )
            return 2
    if args.names:
        for s in specs:
            print(s.name)
        return 0
    if args.json:
        print(json.dumps(
            [s.describe() for s in specs], indent=2, sort_keys=True
        ))
        return 0
    title = f"{len(specs)} registered {plural}"
    if args.tag is not None:
        title += f" tagged {args.tag!r}"
    print(format_table(
        [header for header, _ in columns],
        [[cell(s) for _, cell in columns] for s in specs],
        title=title,
    ))
    return 0


def _check_registry(registry, own_problems) -> int:
    """Registry completeness / drift gate (CI policy-matrix and
    scaling-smoke): every spec's default factory builds and passes
    ``own_problems``, its defaults pass its own schema, its aliases
    resolve to it and its ``describe()`` is JSON-clean."""
    import json

    kind, plural = registry.error.kind, registry.error.plural
    problems: list[str] = []
    for s in registry:
        try:
            built = s.build()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(f"{s.name}: default factory failed: {exc}")
            continue
        problems += [f"{s.name}: {p}" for p in own_problems(s, built)]
        try:
            s.from_params(s.defaults())
        except Exception as exc:  # noqa: BLE001
            problems.append(
                f"{s.name}: schema defaults fail their own validation: {exc}"
            )
        for alias in s.aliases:
            if registry.get(alias) is not s:
                problems.append(
                    f"{s.name}: alias {alias!r} resolves to a different spec"
                )
        try:
            json.dumps(s.describe())
        except Exception as exc:  # noqa: BLE001
            problems.append(f"{s.name}: describe() not JSON-serializable: {exc}")
    if problems:
        print(
            f"{kind} registry check FAILED ({len(problems)} problem(s)):",
            file=sys.stderr,
        )
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(
        f"{kind} registry OK ({len(registry)} {plural}, "
        f"{sum(len(s.params) for s in registry)} parameters checked)"
    )
    return 0


def _cmd_run(exp_id: str, scale: float, seed: int, campaign=None) -> int:
    t0 = time.perf_counter()
    result = run_experiment(exp_id, seed=seed, work_scale=scale, campaign=campaign)
    print(result.render())
    print(f"\n[{exp_id} regenerated in {time.perf_counter() - t0:.1f}s "
          f"at work_scale={scale}]")
    return 0


def _cmd_compare(wl_name: str, scale: float, seed: int) -> int:
    spec = workload(wl_name)
    results = run_policies(spec, seed=seed, work_scale=scale)
    base = results["cfs"]
    rows = []
    for name, res in results.items():
        rows.append(
            [
                name,
                fairness(res),
                speedup(res, base),
                res.swap_count,
                res.makespan_s,
            ]
        )
    print(
        format_table(
            ["policy", "fairness", "speedup", "swaps", "makespan(s)"],
            rows,
            title=f"{wl_name} ({spec.workload_class}): policy comparison",
        )
    )
    return 0


def _cmd_report(scale: float, seed: int, n_seeds: int = 1, campaign=None) -> int:
    from repro.analysis.report import build_report
    from repro.experiments.fig6 import run_fig6

    seeds = tuple(seed + i for i in range(n_seeds)) if n_seeds > 1 else None
    fig6 = run_fig6(seed=seed, work_scale=scale, seeds=seeds, campaign=campaign)
    report = build_report(fig6)
    print(report.render())
    return 0 if report.all_hold else 1


def _cmd_replicate(wl_name: str, n_seeds: int, scale: float, seed: int) -> int:
    from repro.analysis.replication import compare_policies
    from repro.policies import REGISTRY

    spec = workload(wl_name)
    seeds = [seed + i for i in range(n_seeds)]
    policies = {
        k: v for k, v in REGISTRY.standard_factories().items() if k != "cfs"
    }
    cells = compare_policies(spec, policies, seeds, work_scale=scale)
    rows = []
    for name, cell in cells.items():
        rows.append(
            [
                name,
                cell.fairness.mean,
                cell.fairness.std,
                cell.speedup.mean,
                cell.speedup.std,
                cell.swaps.mean,
            ]
        )
    print(
        format_table(
            ["policy", "F mean", "F std", "S mean", "S std", "swaps"],
            rows,
            title=f"{wl_name}: {n_seeds}-seed replication (seeds {seeds})",
        )
    )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import placement_timeline, swap_activity_sparkline
    from repro.experiments.runner import run_workload
    from repro.policies import REGISTRY

    try:
        topo = _topology(args).build()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = workload(args.workload)
    result = run_workload(
        spec, REGISTRY.build(args.policy), seed=args.seed,
        work_scale=args.scale, topology=topo, record_timeseries=True,
    )
    print(placement_timeline(result, topo))
    print()
    print(swap_activity_sparkline(result))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_workload
    from repro.obs import attach
    from repro.spec import PolicyRef

    _note_inprocess_flags(args)
    spec = workload(args.workload)
    try:
        policy = PolicyRef.from_arg(args.policy)
        topology = _topology(args).build()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    policy_name, scheduler = policy.name, policy.build()
    out = args.trace_out or args.out or "trace.jsonl"
    # Dike carries its swapSize in config; the policy contract picks it
    # up so the budget rule starts from the configured value.
    config = getattr(scheduler, "config", None)
    att = attach(
        trace=out,
        chrome=args.chrome,
        max_bytes=args.max_bytes,
        metrics=True,
        tally=True,
        invariants=False if args.no_invariants else policy_name,
        strict=args.strict,
        swap_size=getattr(config, "swap_size", None),
    )

    t0 = time.perf_counter()
    result = run_workload(
        spec, scheduler, seed=args.seed, work_scale=args.scale,
        topology=topology, record_timeseries=False, bus=att, llc=args.llc,
    )
    att.close()
    att.finalize(result)

    print(f"{spec.name}/{policy_name}@s{args.seed}: "
          f"makespan={result.makespan_s:.1f}s quanta={result.n_quanta} "
          f"swaps={result.swap_count}")
    rows = [[kind, n] for kind, n in sorted(att.tally.counts.items())]
    print(format_table(["event", "count"], rows,
                       title=f"{att.jsonl.n_events} events -> {out}"))
    metrics = result.info.get("metrics", {})
    if metrics:
        mrows = []
        for name, snap in metrics.items():
            if isinstance(snap, dict):
                if not snap.get("count"):
                    continue
                mrows.append([name, snap["count"],
                              f"{snap['mean']:.3g}", f"{snap['max']:.3g}"])
            else:
                mrows.append([name, snap, "", ""])
        print(format_table(["metric", "count/value", "mean", "max"], mrows,
                           title="metrics"))
    if att.chrome is not None:
        print(f"chrome trace -> {args.chrome} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    print(f"[traced in {time.perf_counter() - t0:.1f}s "
          f"at work_scale={args.scale}]")
    invariants = att.invariants
    if invariants is not None:
        if invariants.ok:
            print(f"invariants: OK ({invariants.n_events} events checked, "
                  f"rules: {', '.join(invariants.rules)})")
        else:
            print(f"invariants: {len(invariants.violations)} violation(s):",
                  file=sys.stderr)
            for v in invariants.violations[:20]:
                print(f"  {v}", file=sys.stderr)
            return 1
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs.diff import (
        SchemaMismatch,
        analyze_traces,
        load_events,
        render_report,
    )

    try:
        events_a = load_events(args.trace_a, validate=not args.no_validate)
        events_b = load_events(args.trace_b, validate=not args.no_validate)
        report = analyze_traces(events_a, events_b)
    except SchemaMismatch as exc:
        # Events from different schema versions are not comparable — any
        # "alignment" would be noise, so refuse loudly instead.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(report, label_a=args.trace_a, label_b=args.trace_b))
    return 0 if report.identical else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.benchmarking import (
        BATCHED_SUITE,
        DEFAULT_SCALING_THRESHOLD,
        DEFAULT_THRESHOLD,
        FULL_SUITE,
        QUICK_SUITE,
        SCALING_SUITE,
        build_report,
        compare,
        compare_scaling,
        load_report,
        run_batched_suite,
        run_scaling_suite,
        run_suite,
        write_report,
    )
    _note_inprocess_flags(args)
    try:
        topo = _topology(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    topology_factory = (
        topo.spec.from_params(dict(topo.params))
        if topo.name != "heterogeneous" or topo.params
        else None
    )
    if topology_factory is not None and args.baseline:
        print(
            "note: throughput cases measured on a non-default --topology "
            "are not comparable to a committed baseline; expect spurious "
            "deltas",
            file=sys.stderr,
        )
    cases = QUICK_SUITE if args.quick else FULL_SUITE
    baseline = load_report(args.baseline) if args.baseline else None
    base_results = dict(baseline["results"]) if baseline else {}
    base_reference = baseline.get("reference", {}) if baseline else {}
    ref_results = (
        base_reference.get("results", {})
        if isinstance(base_reference, dict)
        else {}
    )
    quiet = args.json

    t0 = time.perf_counter()
    rows = []

    def _ratio(r: dict, against: Mapping | None) -> str:
        if not against:
            return ""
        base = float(against.get("quanta_per_s", 0.0))
        return f"{r['quanta_per_s'] / base:.1f}x" if base > 0 else ""

    def progress(name: str, r: dict) -> None:
        delta = ""
        if name in base_results:
            base = float(base_results[name]["quanta_per_s"])
            if base > 0:
                delta = f"{100.0 * (r['quanta_per_s'] / base - 1.0):+.0f}%"
        rows.append(
            [
                name,
                r["quanta_per_s"],
                r["n_quanta"],
                r["wall_s"],
                delta,
                _ratio(r, ref_results.get(name)),
            ]
        )
        print(f"  {name}: {r['quanta_per_s']:.0f} quanta/s", file=sys.stderr)

    results = run_suite(
        cases, repeats=args.repeats, progress=progress,
        topology_factory=topology_factory,
    )
    if not quiet:
        print(
            format_table(
                ["case", "quanta/s", "quanta", "wall(s)", "vs baseline",
                 "vs reference"],
                rows,
                title=f"engine throughput ({len(cases)} cases, "
                      f"best of {args.repeats})",
            )
        )

    batched = None
    if args.batched:
        batch_rows = []

        def batch_progress(name: str, r: dict) -> None:
            batch_rows.append(
                [
                    name,
                    r["quanta_per_s"],
                    r["scalar_quanta_per_s"],
                    f"{r['speedup_vs_scalar']:.2f}x",
                    r["n_runs"],
                    r["wall_s"],
                ]
            )
            print(
                f"  {name}: {r['quanta_per_s']:.0f} quanta/s "
                f"({r['speedup_vs_scalar']:.2f}x vs scalar)",
                file=sys.stderr,
            )

        batched = run_batched_suite(
            BATCHED_SUITE, repeats=args.repeats, progress=batch_progress
        )
        if not quiet:
            print(
                format_table(
                    ["case", "batched q/s", "scalar q/s", "speedup",
                     "runs", "wall(s)"],
                    batch_rows,
                    title=f"batched engine ({len(BATCHED_SUITE)} grids, "
                          f"best of {args.repeats})",
                )
            )

    scaling = None
    if args.scaling:
        scaling_rows = []

        def scaling_progress(name: str, r: dict) -> None:
            scaling_rows.append(
                [
                    name,
                    r["n_threads"],
                    r["overhead_us_per_quantum"],
                    r["n_quanta"],
                    r["wall_s"],
                ]
            )
            print(
                f"  {name}: {r['overhead_us_per_quantum']:.0f} us/quantum "
                f"({r['n_threads']} threads)",
                file=sys.stderr,
            )

        scaling = run_scaling_suite(
            SCALING_SUITE, repeats=args.repeats, progress=scaling_progress
        )
        if not quiet:
            print(
                format_table(
                    ["case", "threads", "sched us/quantum", "quanta",
                     "wall(s)"],
                    scaling_rows,
                    title=f"scheduler overhead vs machine size "
                          f"({len(SCALING_SUITE)} points, "
                          f"best of {args.repeats})",
                )
            )
    if not quiet:
        print(f"[bench completed in {time.perf_counter() - t0:.1f}s]")

    # Preserve the committed report's reference block (the pre-refactor
    # numbers) when overwriting it in place, and its batched/scaling
    # blocks when this invocation did not re-measure them.
    reference = baseline.get("reference") if baseline else None
    prior = (
        load_report(args.out)
        if args.out and Path(args.out).exists()
        else None
    )
    if reference is None and prior is not None:
        reference = prior.get("reference")
    batched_out = batched
    if batched_out is None and prior is not None:
        batched_out = prior.get("batched")
    scaling_out = scaling
    if scaling_out is None and prior is not None:
        scaling_out = prior.get("scaling")

    if args.json:
        print(_json.dumps(
            build_report(
                results,
                repeats=args.repeats,
                reference=reference,
                batched=batched if batched is not None else None,
                scaling=scaling if scaling is not None else None,
            ),
            indent=2,
            sort_keys=True,
        ))

    if args.out:
        write_report(
            args.out,
            results,
            repeats=args.repeats,
            reference=reference,
            batched=batched_out,
            scaling=scaling_out,
        )
        if not quiet:
            print(f"report -> {args.out}")

    if baseline is not None:
        threshold = (
            args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
        )
        current = dict(results)
        if batched is not None:
            # Batched grids ratchet alongside the scalar cases; the names
            # are disjoint (batch32/...), so one compare covers both.
            current.update(batched)
            base_results.update(baseline.get("batched", {}))
        regressions = compare(current, base_results, threshold=threshold)
        if scaling is not None:
            # Scheduler overhead ratchets lower-is-better, with its own
            # (wider) default threshold; --threshold overrides both.
            regressions += compare_scaling(
                scaling,
                baseline.get("scaling", {}),
                threshold=(
                    args.threshold
                    if args.threshold is not None
                    else DEFAULT_SCALING_THRESHOLD
                ),
            )
        if regressions:
            print(f"{len(regressions)} perf regression(s):", file=sys.stderr)
            for r in regressions:
                print(f"  {r}", file=sys.stderr)
            return 1
        if not quiet:
            n_compared = len(set(current) & set(base_results))
            if scaling is not None:
                n_compared += len(set(scaling) & set(baseline.get("scaling", {})))
            print(f"no regressions beyond {threshold * 100:.0f}% "
                  f"({n_compared} cases compared)")
    return 0


def _cmd_all(scale: float, seed: int, campaign=None) -> int:
    for exp_id in EXPERIMENTS:
        _cmd_run(exp_id, scale, seed, campaign=campaign)
        print()
    return 0


def _parse_param_grid(
    entries: list[str] | None,
) -> tuple[tuple[str, tuple], ...]:
    """``["swap_size=4,8"]`` -> ``(("swap_size", (4, 8)),)``.

    Values parse as ``name:key=value`` values do
    (`repro.topologies.parse_param_value`) — the policy schema validates
    types downstream, with the parameter name in the error message.
    """
    from repro.topologies import parse_param_value

    grid = []
    for entry in entries or []:
        key, sep, values = entry.partition("=")
        if not sep or not key or not values:
            raise ValueError(
                f"bad --param {entry!r}; expected KEY=V1[,V2...]"
            )
        grid.append((key, tuple(parse_param_value(v) for v in values.split(","))))
    return tuple(grid)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, plan
    from repro.policies import REGISTRY

    workloads = (
        tuple(args.workloads.split(",")) if args.workloads
        else tuple(WORKLOAD_TABLE)
    )
    policies = (
        tuple(args.policies.split(",")) if args.policies
        else tuple(s.name for s in REGISTRY.tagged("standard"))
    )
    try:
        topo = _topology(args)
        spec = CampaignSpec(
            name="sweep-grid" if args.sweep else "fig6-grid",
            workloads=workloads,
            policies=policies,
            seeds=tuple(args.seed + i for i in range(args.seeds)),
            work_scale=args.scale,
            sweep=args.sweep,
            param_grid=_parse_param_grid(args.param),
            invariants=args.invariants,
            llc=args.llc,
            topology=topo.name,
            topology_params=topo.params,
        )
        campaign = _make_campaign(args)
        the_plan = plan(spec)
    except ValueError as exc:  # bad workload/policy/seed flags, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_plan(
        args, campaign, the_plan,
        lambda results: _report_campaign(spec, dict(zip(the_plan.keys, results))),
    )


def _report_campaign(spec, by_key: dict) -> None:
    """The policy aggregate table of a campaign that includes ``cfs``
    (over cells whose runs all succeeded)."""
    from repro.campaign import TaskFailure
    from repro.util.stats import geometric_mean

    policies, workloads = spec.policies, spec.workloads
    if "cfs" in policies:
        rows = []
        for p in policies:
            fair_vals, speed_vals = [], []
            for wl in workloads:
                for s in spec.seeds:
                    run = _cell(by_key, spec, wl, p, s)
                    base = _cell(by_key, spec, wl, "cfs", s)
                    # A param_grid campaign has no unparameterised cell for
                    # grid-covered policies (None here); skip those rows.
                    if run is None or base is None:
                        continue
                    if isinstance(run, TaskFailure) or isinstance(base, TaskFailure):
                        continue
                    fair_vals.append(fairness(run))
                    speed_vals.append(speedup(run, base))
            if fair_vals:
                rows.append([
                    p,
                    float(left_sum(fair_vals) / len(fair_vals)),
                    geometric_mean(speed_vals),
                    len(fair_vals),
                ])
        print(
            format_table(
                ["policy", "mean fairness", "geomean speedup", "cells"],
                rows,
                title=f"campaign {spec.name!r}: policy aggregate "
                      f"({len(workloads)} workloads x {len(spec.seeds)} seeds)",
            )
        )


def _run_plan(args: argparse.Namespace, campaign, the_plan, report,
              before_run=None) -> int:
    """The shared tail of ``campaign`` and ``traffic``: print the plan
    (with its cache state), stop there on ``--dry-run``, gather every
    task, hand the results to ``report``, and exit 1 on a failed task
    or an invariant violation.  ``before_run`` runs after the plan is
    printed, dry run or not."""
    from repro.campaign import TaskFailure

    if campaign.store is not None:
        the_plan = replace(
            the_plan,
            cached=frozenset(k for k in the_plan.keys if k in campaign.store),
        )
    print(the_plan.describe())
    if before_run is not None:
        before_run()
    if args.dry_run:
        return 0

    results = campaign.gather(list(the_plan.tasks), strict=False)
    failures = [r for r in results if isinstance(r, TaskFailure)]
    campaign.telemetry.close()
    report(results)
    tag = f"[{args.command}]"
    print(f"\n{tag} {campaign.telemetry.render_summary()}")
    if failures:
        print(f"{tag} {len(failures)} task(s) failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f.label} [{f.kind} x{f.attempts}]: {f.error}", file=sys.stderr)
        return 1
    if campaign.telemetry.invariant_violations:
        print(
            f"{tag} {campaign.telemetry.invariant_violations} invariant "
            "violation(s) — the scheduling contract does not hold",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import TaskFailure
    from repro.traffic import (
        TrafficCampaignSpec,
        TrafficSpec,
        plan_traffic,
        write_trace,
    )

    try:
        processes = tuple(args.processes.split(","))
        rates = tuple(float(r) for r in args.rate.split(","))
        load = tuple(
            TrafficSpec.at_rate(
                rate,
                process=proc,
                n_jobs=args.jobs,
                trace_seed=args.trace_seed,
                n_threads=args.threads_per_job,
            )
            for proc in processes
            for rate in rates
        )
        topo = _topology(args)
        spec = TrafficCampaignSpec(
            traffic=load,
            policies=tuple(args.policies.split(",")),
            seeds=tuple(args.seed + i for i in range(args.seeds)),
            work_scale=args.scale,
            invariants=args.invariants,
            llc=args.llc,
            topology=topo.name,
            topology_params=topo.params,
        )
        campaign = _make_campaign(args)
        the_plan = plan_traffic(spec)
    except ValueError as exc:  # bad process/rate/policy flags, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def emit_traces() -> None:
        trace_dir = Path(args.emit_traces)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for t in load:
            path = write_trace(t.trace(), trace_dir / f"{t.name}.jsonl")
            print(f"[traffic] trace -> {path}")

    def report(results: list) -> None:
        by_name = {t.name: t for t in load}
        rows, cells = [], []
        for task, res in zip(the_plan.tasks, results):
            if isinstance(res, TaskFailure):
                continue
            t = by_name[task.workload.name]
            summary = res.info.get("traffic", {})
            rows.append([
                t.process,
                t.rate_per_s,
                task.policy.name,
                task.seed,
                summary.get("slowdown_p50"),
                summary.get("slowdown_p95"),
                summary.get("slowdown_p99"),
                summary.get("throughput_jobs_per_s"),
                summary.get("queue_depth_peak"),
            ])
            cells.append({
                "traffic": task.workload.name,
                "process": t.process,
                "rate_per_s": t.rate_per_s,
                "n_jobs": t.n_jobs,
                "trace_seed": t.trace_seed,
                "policy": task.policy.name,
                "seed": task.seed,
                "makespan_s": res.makespan_s,
                "summary": summary,
            })
        if rows:
            print(
                format_table(
                    [
                        "process", "rate/s", "policy", "seed",
                        "slow p50", "slow p95", "slow p99",
                        "jobs/s", "queue peak",
                    ],
                    rows,
                    title=f"traffic {spec.name!r}: tail latency by cell "
                          f"({len(load)} loads x {len(spec.policies)} policies "
                          f"x {len(spec.seeds)} seeds)",
                )
            )
        if args.out:
            doc = {
                "name": spec.name,
                "work_scale": spec.work_scale,
                "processes": list(processes),
                "rates_per_s": list(rates),
                "policies": list(spec.policies),
                "seeds": list(spec.seeds),
                "cells": cells,
            }
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(f"[traffic] report -> {out}")

    return _run_plan(
        args, campaign, the_plan, report,
        before_run=emit_traces if args.emit_traces else None,
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tune import TuneConfig, Tuner
    from repro.tune.space import DEFAULT_TUNABLES
    from repro.workloads.suite import WORKLOAD_TABLE as _WORKLOADS

    try:
        topo = _topology(args)
        config = TuneConfig(
            policy=args.policy,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.search_seed,
            tunables=(
                tuple(args.tunables.split(",")) if args.tunables
                else DEFAULT_TUNABLES
            ),
            workloads=(
                tuple(args.workloads.split(",")) if args.workloads
                else tuple(_WORKLOADS)
            ),
            eval_seeds=tuple(args.seed + i for i in range(args.seeds)),
            work_scale=args.scale,
            quick_scale=QUICK_SCALE,
            topology=topo.name,
            topology_params=topo.params,
            llc=args.llc,
            invariants=args.invariants,
            population=args.population,
            eta=args.eta,
        )
        campaign = _make_campaign(args)
        tuner = Tuner(
            campaign, config,
            log=lambda msg: print(f"[tune] {msg}", file=sys.stderr),
        )
    except ValueError as exc:  # bad policy/tunable/workload flags
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        f"[tune] {config.strategy} over {list(config.tunables)} of "
        f"{config.policy!r}: budget {config.budget}, "
        f"{len(config.workloads)} workload(s) x "
        f"{len(config.eval_seeds)} seed(s) per evaluation",
        file=sys.stderr,
    )
    try:
        return _run_tune(args, campaign, tuner, config)
    finally:
        campaign.telemetry.close()


def _run_tune(args, campaign, tuner, config) -> int:
    import json

    from repro.tune import build_tuning_report

    result = tuner.run()
    artifact = result.to_artifact()
    out = Path(args.out or f"tuned_{config.policy}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"[tune] artifact -> {out}")
    print(
        f"[tune] best score {result.best_score:.4f} "
        f"after {result.n_evaluations} evaluation(s); "
        f"--policy {result.policy_arg()}"
    )

    if args.stats:
        s = campaign.telemetry.summary()
        executed, hits = int(s["done"]), int(s["cache_hits"])
        stats_doc = {
            "executed": executed,
            "cache_hits": hits,
            "failed": int(s["failed"]),
            "hit_rate": (
                hits / (hits + executed) if (hits + executed) else 0.0
            ),
        }
        stats_path = Path(args.stats)
        stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(
            json.dumps(stats_doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"[tune] stats -> {stats_path}")

    if args.report:
        comparisons = tuple(
            name for name in args.compare.split(",") if name
        )
        report = build_tuning_report(
            campaign, config, result.best_params, comparisons
        )
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"[tune] report -> {report_path}")
        rows = [
            [
                label,
                report["entries"][label]["policy"],
                report["entries"][label]["mean_fairness"],
            ]
            for label in report["ranking"]
        ]
        print(
            format_table(
                ["entry", "policy", "mean fairness"],
                rows,
                title="tuning report (Eqn. 4 fairness, higher is better)",
            )
        )
    return 0


def _cell(by_key: dict, spec, wl_name: str, policy: str, seed: int) -> object:
    """The result of one unparameterised cell of campaign ``spec``."""
    from repro.campaign import SimParams
    from repro.spec import ExperimentSpec

    exp = ExperimentSpec.for_workload(
        workload(wl_name), policy, seed,
        sim=SimParams(
            work_scale=spec.work_scale,
            llc=spec.llc,
            topology=spec.topology,
            topology_params=spec.topology_params,
        ),
        invariants=spec.invariants,
    )
    return by_key.get(exp.cache_key())


def _with_campaign(args: argparse.Namespace, run) -> int:
    """Run a command with its (optional) campaign, closing telemetry after
    so cache-backed invocations end with the executed/hits summary line.
    Without a cache, workers, invariants or traces the command runs
    inline (``campaign=None``)."""
    campaign = None
    if (
        args.cache_dir is not None
        or args.workers > 1
        or args.invariants
        or args.trace_out is not None
    ):
        campaign = _make_campaign(args)
    try:
        return run(campaign)
    finally:
        if campaign is not None:
            campaign.telemetry.close()


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:  # e.g. `dike-repro list | head` — not an error
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    _resolve_shared_flags(args)
    if args.command == "list":
        return _cmd_list()
    if args.command in ("policies", "topologies"):
        return _cmd_registry(args)
    if args.command == "run":
        try:
            _note_pinned_topology(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _with_campaign(
            args, lambda c: _cmd_run(args.experiment, args.scale, args.seed, c)
        )
    if args.command == "compare":
        return _cmd_compare(args.workload, args.scale, args.seed)
    if args.command == "report":
        return _with_campaign(
            args, lambda c: _cmd_report(args.scale, args.seed, args.seeds, c)
        )
    if args.command == "replicate":
        return _cmd_replicate(args.workload, args.seeds, args.scale, args.seed)
    if args.command == "timeline":
        return _cmd_timeline(args)
    if args.command == "all":
        return _with_campaign(
            args, lambda c: _cmd_all(args.scale, args.seed, c)
        )
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "traffic":
        return _cmd_traffic(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "trace-diff":
        return _cmd_trace_diff(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
