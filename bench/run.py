"""Benchmark of the Dike reproduction: ``python bench/run.py``.

Runs every workload (or ``--workload NAME``) in turn, each in a fresh
process that sets up and then times its gathers for ``--seconds`` (at
least three repeats; each gather's fastest repeat counts).  Four more
processes only set up, two before and two after; ``setup_s`` is the
median of the five.
It prints every metric as ``workload metric value unit`` and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 1`` reports the per-layer metrics of a traced run instead (see
``tracing.py``) and writes spans to ``bench/out/``.  ``--sets N`` runs N
full sets back to back and compares every end-to-end metric of each set
with the first against the bounds in ``BENCHMARK.json``.
``--update-expected`` regenerates the committed fingerprints.

The program under test is the ``repro`` package in ``src/`` next to this
directory; without it the benchmark exits with an error and no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("paper-grid", "warm-replay", "batch-seeds", "poisson-llc", "scale512-dike")
#: end-to-end metric -> unit
END_TO_END = {"quanta_per_s": "quanta/s", "setup_s": "s", "peak_rss_mb": "MiB"}
#: set-up processes per workload; their median is ``setup_s``
SETUPS = 5
#: a run of the benchmark ends within this many seconds
DEADLINE_S = 170.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=1, help="input seed (fingerprints exist for 1)")
    p.add_argument("--seconds", type=float, default=15.0, help="timed seconds per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="report per-layer metrics of a traced run")
    p.add_argument("--sets", type=int, default=1, help="full sets to run and compare")
    p.add_argument("--smoke", action="store_true", help="small subsets of every workload")
    p.add_argument("--update-expected", action="store_true",
                   help="regenerate bench/expected/ at the default seed")
    # Internal: the per-workload child process.
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0-ns", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.sets < 1:
        p.error("--sets must be >= 1")
    if args.sets > 1 and args.trace:
        p.error("--sets compares end-to-end metrics; run it without --trace")
    return args


# ------------------------------------------------------------------ child


def child(args: argparse.Namespace) -> int:
    """Measure one workload in this process; print its report as JSON."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import the program under test from {src}: {exc}") from None
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")
    from workloads import measure

    report = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        trace=bool(args.trace),
        setup_only=args.setup_only,
        update=args.update_expected,
        t0_ns=args.t0_ns,
    )
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------- parent


class BenchError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, workload: str, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--smoke"] * args.smoke
    cmd += ["--setup-only"] if setup_only else ["--update-expected"] * args.update_expected
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace, workload: str, deadline: float) -> dict:
    """Metrics (with units), counts and details of one workload."""
    if args.trace:
        report = spawn(args, workload, deadline, setup_only=False)
        report["metrics"] = report.pop("layers")
        return report

    def setup_alone() -> float:
        return spawn(args, workload, deadline, setup_only=True)["setup_s"]

    # Set-ups before and after the measured process, so that one slow
    # moment of the host does not decide the median.
    setups = [setup_alone() for _ in range(SETUPS // 2)]
    report = spawn(args, workload, deadline, setup_only=False)
    setups.append(report["setup_s"])
    setups += [setup_alone() for _ in range(SETUPS - len(setups))]
    report["metrics"] = {
        "quanta_per_s": report["quanta_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    report["units"] = END_TO_END
    report["setup_s_processes"] = setups
    return report


def print_report(workload: str, report: dict) -> None:
    for name, value in report["metrics"].items():
        print(f"{workload} {name} {value:.6g} {report['units'][name]}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{workload} failed_frac {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} runs; fingerprints {report['fingerprints']})")
    print(f"{workload} sim_fairness_mean {report['sim_fairness_mean']:.6f} Eqn-4")
    print(f"{workload} sim_makespan_s {report['sim_makespan_s']:.6f} simulated-s")
    if "quanta_per_s_repeats" in report:
        rates = " ".join(f"{r:.1f}" for r in report["quanta_per_s_repeats"])
        setups = " ".join(f"{s:.3f}" for s in report["setup_s_processes"])
        print(f"{workload} repeats quanta/s: {rates}; set-up s: {setups}")
    sys.stdout.flush()


def run_set(args: argparse.Namespace, names: tuple[str, ...], deadline: float) -> dict[str, dict]:
    reports = {}
    for name in names:
        reports[name] = run_workload(args, name, deadline)
        print_report(name, reports[name])
    return reports


def result_line(reports: dict[str, dict]) -> dict:
    """The last line: one workload's metrics, or all prefixed by workload."""
    prefix = len(reports) > 1
    metrics = {
        f"{workload}.{name}" if prefix else name: {"value": value, "unit": report["units"][name]}
        for workload, report in reports.items()
        for name, value in report["metrics"].items()
    }
    failed = sum(r["failed"] for r in reports.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }


def compare_sets(sets: list[dict[str, dict]]) -> bool:
    """Each later set against the first, metric by metric, within bounds."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    print(f"{'workload':14} {'metric':13} {'set':>3} {'first':>12} {'this':>12} "
          f"{'rel':>8} {'bound':>6}")
    for k, other in enumerate(sets[1:], start=2):
        for workload, report in sets[0].items():
            for name, bound in bounds.items():
                a = report["metrics"][name]
                b = other[workload]["metrics"][name]
                rel = abs(b - a) / abs(a)
                verdict = "PASS" if rel <= bound else "FAIL"
                ok &= verdict == "PASS"
                print(f"{workload:14} {name:13} {k:3d} {a:12.6g} {b:12.6g} "
                      f"{rel:8.2%} {bound:6.0%} {verdict}")
    return ok


def main() -> int:
    args = parse_args(sys.argv[1:])
    if args.child:
        return child(args)
    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    deadline = time.monotonic() + DEADLINE_S * len(names) * args.sets
    try:
        sets = [run_set(args, names, deadline) for _ in range(args.sets)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.sets > 1:
        failed = any(r["failed"] for s in sets for r in s.values())
        return 0 if compare_sets(sets) and not failed else 1
    print(json.dumps(result_line(sets[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
