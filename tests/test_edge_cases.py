"""Edge-case integration tests: degenerate workload mixes and machine shapes."""

from __future__ import annotations

import math

from repro.policies import REGISTRY
from repro.experiments.runner import run_workload
from repro.metrics.fairness import fairness
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.dio import DIOScheduler
from repro.sim.topology import SocketSpec, Topology
from repro.workloads.suite import WorkloadSpec


def finished(result) -> bool:
    return all(
        math.isfinite(t)
        for b in result.benchmarks
        for t in b.thread_finish_times
    )


class TestDegenerateMixes:
    def test_all_memory_workload(self):
        """Every thread the same type: Algorithm 1's same-type branch."""
        spec = WorkloadSpec(
            name="allm", apps=("jacobi", "streamcluster", "needle", "stream_omp"),
            include_kmeans=False, threads_per_app=2,
        )
        result = run_workload(spec, REGISTRY.build("dike"), work_scale=0.02)
        assert finished(result)

    def test_all_compute_workload(self):
        spec = WorkloadSpec(
            name="allc", apps=("srad", "hotspot", "lavaMD", "heartwall"),
            include_kmeans=False, threads_per_app=2,
        )
        result = run_workload(spec, REGISTRY.build("dike"), work_scale=0.02)
        assert finished(result)
        # compute apps barely touch memory: few or no swaps needed
        assert result.swap_count < 200

    def test_single_benchmark(self):
        spec = WorkloadSpec(
            name="one", apps=("jacobi",), include_kmeans=False, threads_per_app=4
        )
        for factory in (REGISTRY.factory("dike"), REGISTRY.factory("dike-af"),
                        DIOScheduler, CFSScheduler):
            result = run_workload(spec, factory(), work_scale=0.02)
            assert finished(result)

    def test_two_threads_total(self):
        spec = WorkloadSpec(
            name="pair", apps=("jacobi",), include_kmeans=False, threads_per_app=2
        )
        result = run_workload(spec, REGISTRY.build("dike"), work_scale=0.02)
        assert finished(result)
        assert math.isfinite(fairness(result))

    def test_duplicate_applications(self):
        """Two instances of the same app are independent process groups."""
        spec = WorkloadSpec(
            name="dup", apps=("jacobi", "jacobi"), include_kmeans=False,
            threads_per_app=2,
        )
        result = run_workload(spec, REGISTRY.build("dike"), work_scale=0.02)
        assert finished(result)
        assert len(result.benchmarks) == 2
        assert result.benchmarks[0].group_id != result.benchmarks[1].group_id


class TestDegenerateMachines:
    def test_single_socket(self):
        topo = Topology((SocketSpec(2.0, 4, 2, 12.0),), memory_controller_gbps=14.0)
        spec = WorkloadSpec(
            name="t", apps=("jacobi", "srad"), include_kmeans=False,
            threads_per_app=2,
        )
        result = run_workload(spec, REGISTRY.build("dike"), work_scale=0.02, topology=topo)
        assert finished(result)

    def test_no_smt(self):
        topo = Topology(
            (SocketSpec(2.0, 4, 1, 12.0), SocketSpec(1.0, 4, 1, 6.0)),
            memory_controller_gbps=14.0,
        )
        spec = WorkloadSpec(
            name="t", apps=("jacobi", "srad"), include_kmeans=False,
            threads_per_app=2,
        )
        result = run_workload(spec, DIOScheduler(), work_scale=0.02, topology=topo)
        assert finished(result)

    def test_tiny_bandwidth_machine(self):
        """Crushing contention: everything memory-starved, still terminates."""
        topo = Topology(
            (SocketSpec(2.0, 2, 2, 1.0), SocketSpec(1.0, 2, 2, 0.5)),
            memory_controller_gbps=1.2,
        )
        spec = WorkloadSpec(
            name="t", apps=("jacobi", "streamcluster"), include_kmeans=False,
            threads_per_app=2,
        )
        result = run_workload(
            spec, REGISTRY.build("dike"), work_scale=0.005, topology=topo, max_time_s=3000.0
        )
        assert finished(result)

    def test_extreme_frequency_ratio(self):
        topo = Topology(
            (SocketSpec(4.0, 2, 2, 20.0), SocketSpec(0.5, 2, 2, 4.0)),
            memory_controller_gbps=22.0,
        )
        spec = WorkloadSpec(
            name="t", apps=("jacobi", "srad"), include_kmeans=False,
            threads_per_app=2,
        )
        r_cfs = run_workload(spec, CFSScheduler(), work_scale=0.02, topology=topo)
        r_dike = run_workload(spec, REGISTRY.build("dike"), work_scale=0.02, topology=topo)
        assert finished(r_cfs) and finished(r_dike)
        assert fairness(r_dike) > fairness(r_cfs)


class TestPublicApiQuality:
    def test_all_public_names_have_docstrings(self):
        """Every name exported by the top-level package is documented."""
        import repro

        undocumented = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert undocumented == []

    def test_public_surface_is_warning_free(self):
        """``from repro import *`` and every ``__all__`` name of every
        module resolve without a DeprecationWarning."""
        import importlib
        import pkgutil
        import warnings

        import repro

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exec("from repro import *", {})
            for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
                if modinfo.name.endswith("__main__"):
                    continue
                module = importlib.import_module(modinfo.name)
                for name in getattr(module, "__all__", ()):
                    getattr(module, name)

    def test_all_modules_have_docstrings(self):
        import importlib
        import pkgutil

        import repro

        missing = []
        for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if modinfo.name.endswith("__main__"):
                continue  # importing it would run the CLI
            mod = importlib.import_module(modinfo.name)
            if not (mod.__doc__ or "").strip():
                missing.append(modinfo.name)
        assert missing == []
