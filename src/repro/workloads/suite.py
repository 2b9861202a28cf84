"""The paper's 16-workload evaluation suite (Table II).

Each workload is four Rodinia applications x 8 threads, plus the KMEANS
contention generator x 8 threads (40 threads total, one per virtual core of
the Table I machine).  Workloads are classed Balanced (2M/2C), Unbalanced-
Compute (1M/3C) or Unbalanced-Memory (3M/1C) by the nominal intensity of
the four main applications; the schedulers receive none of this a-priori
information.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.process import ProcessGroup
from repro.workloads.benchmark import BenchmarkSpec, instantiate
from repro.workloads.rodinia import APP_REGISTRY, app, kmeans
from repro.util.validation import require

__all__ = [
    "WorkloadSpec",
    "WORKLOAD_TABLE",
    "workload",
    "all_workloads",
    "workloads_of_class",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One multi-application workload.

    Parameters
    ----------
    name:
        ``"wl1"`` ... ``"wl16"`` (or a custom name for generated workloads).
    apps:
        The four main application names (Table II row).
    include_kmeans:
        Add the 8-thread KMEANS instance (on by default, as in the paper).
    threads_per_app:
        Threads per application instance (8 in the paper).
    """

    name: str
    apps: tuple[str, ...]
    include_kmeans: bool = True
    threads_per_app: int = 8

    def __post_init__(self) -> None:
        require(len(self.apps) >= 1, "a workload needs at least one app")
        for a in self.apps:
            require(a in APP_REGISTRY, f"unknown application {a!r}")
        require(self.threads_per_app >= 1, "threads_per_app must be >= 1")

    @property
    def specs(self) -> tuple[BenchmarkSpec, ...]:
        """Benchmark specs for the main apps (kmeans excluded)."""
        return tuple(app(a) for a in self.apps)

    @property
    def n_memory(self) -> int:
        return sum(1 for s in self.specs if s.intensity == "M")

    @property
    def n_compute(self) -> int:
        return sum(1 for s in self.specs if s.intensity == "C")

    @property
    def workload_class(self) -> str:
        """``"B"``, ``"UC"`` or ``"UM"`` per the paper's classification."""
        if self.n_memory == self.n_compute:
            return "B"
        return "UC" if self.n_compute > self.n_memory else "UM"

    @property
    def n_threads(self) -> int:
        n = len(self.apps) * self.threads_per_app
        if self.include_kmeans:
            n += self.threads_per_app
        return n

    def build(self, seed: int, work_scale: float = 1.0) -> list[ProcessGroup]:
        """Instantiate process groups with dense global thread ids: the
        apps in order, then kmeans."""
        specs = [app(name) for name in self.apps]
        if self.include_kmeans:
            specs.append(kmeans())
        groups: list[ProcessGroup] = []
        tid = 0
        for gid, spec in enumerate(specs):
            if spec.n_threads != self.threads_per_app:
                spec = replace(spec, n_threads=self.threads_per_app)
            groups.append(instantiate(spec, gid, tid, seed, work_scale))
            tid += spec.n_threads
        return groups


#: Table II verbatim: workload name -> the four main applications.
WORKLOAD_TABLE: dict[str, tuple[str, ...]] = {
    # Balanced (2 M / 2 C)
    "wl1": ("jacobi", "needle", "leukocyte", "lavaMD"),
    "wl2": ("jacobi", "streamcluster", "hotspot", "srad"),
    "wl3": ("streamcluster", "needle", "hotspot", "lavaMD"),
    "wl4": ("jacobi", "streamcluster", "lavaMD", "heartwall"),
    "wl5": ("streamcluster", "needle", "leukocyte", "hotspot"),
    "wl6": ("jacobi", "needle", "heartwall", "srad"),
    # Unbalanced-Compute (1 M / 3 C)
    "wl7": ("jacobi", "lavaMD", "leukocyte", "srad"),
    "wl8": ("needle", "hotspot", "leukocyte", "heartwall"),
    "wl9": ("streamcluster", "heartwall", "leukocyte", "srad"),
    "wl10": ("jacobi", "hotspot", "leukocyte", "heartwall"),
    "wl11": ("needle", "lavaMD", "hotspot", "srad"),
    # Unbalanced-Memory (3 M / 1 C)
    "wl12": ("jacobi", "needle", "streamcluster", "lavaMD"),
    "wl13": ("jacobi", "needle", "stream_omp", "leukocyte"),
    "wl14": ("streamcluster", "needle", "stream_omp", "lavaMD"),
    "wl15": ("jacobi", "streamcluster", "stream_omp", "hotspot"),
    "wl16": ("jacobi", "needle", "streamcluster", "srad"),
}


def workload(name: str, include_kmeans: bool = True) -> WorkloadSpec:
    """Look up a Table II workload by name (``"wl1"`` .. ``"wl16"``)."""
    try:
        apps = WORKLOAD_TABLE[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOAD_TABLE)}"
        ) from None
    return WorkloadSpec(name=name, apps=apps, include_kmeans=include_kmeans)


def all_workloads(include_kmeans: bool = True) -> list[WorkloadSpec]:
    """All 16 workloads in Table II order."""
    return [workload(n, include_kmeans) for n in WORKLOAD_TABLE]


def workloads_of_class(workload_class: str, include_kmeans: bool = True) -> list[WorkloadSpec]:
    """Workloads of one class: ``"B"``, ``"UC"`` or ``"UM"``."""
    require(workload_class in ("B", "UC", "UM"), "class must be B, UC or UM")
    return [w for w in all_workloads(include_kmeans) if w.workload_class == workload_class]
