"""Tests for machine topology, including the Table I configuration."""

from __future__ import annotations

import pytest

from repro.sim.topology import (
    SocketSpec,
    Topology,
    homogeneous,
    xeon_e5_heterogeneous,
)


class TestSocketSpec:
    def test_vcore_count(self):
        assert SocketSpec(2.0, 10, 2).n_vcores == 20

    def test_rejects_bad_freq(self):
        with pytest.raises(ValueError):
            SocketSpec(0.0, 4)

    def test_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            SocketSpec(2.0, 0)

    def test_rejects_bad_smt(self):
        with pytest.raises(ValueError):
            SocketSpec(2.0, 4, smt=3)


class TestTopology:
    def test_dense_vcore_ids(self, small_topology):
        ids = [v.vcore_id for v in small_topology.vcores]
        assert ids == list(range(small_topology.n_vcores))

    def test_physical_ids_global(self, small_topology):
        phys = {v.physical_id for v in small_topology.vcores}
        assert phys == set(range(small_topology.n_physical_cores))

    def test_index_arrays_match_objects(self, small_topology):
        for v in small_topology.vcores:
            assert small_topology.vcore_socket[v.vcore_id] == v.socket_id
            assert small_topology.vcore_physical[v.vcore_id] == v.physical_id
            assert small_topology.vcore_freq_hz[v.vcore_id] == v.freq_hz

    def test_siblings_share_physical_core(self, small_topology):
        sibs = small_topology.siblings(0)
        assert len(sibs) == 1
        assert (
            small_topology.vcore_physical[sibs[0]]
            == small_topology.vcore_physical[0]
        )

    def test_vcores_on_socket_partition(self, small_topology):
        all_v = set()
        for sid in range(small_topology.n_sockets):
            vs = set(small_topology.vcores_on_socket(sid))
            assert not (all_v & vs)
            all_v |= vs
        assert all_v == set(range(small_topology.n_vcores))

    def test_index_arrays_immutable(self, small_topology):
        with pytest.raises(ValueError):
            small_topology.vcore_freq_hz[0] = 1.0

    def test_requires_a_socket(self):
        with pytest.raises(ValueError):
            Topology(())

    def test_is_heterogeneous(self, small_topology):
        assert small_topology.is_heterogeneous
        assert not homogeneous().is_heterogeneous


class TestTableIMachine:
    """The defaults must mirror the paper's Table I."""

    def test_40_virtual_cores(self):
        assert xeon_e5_heterogeneous().n_vcores == 40

    def test_two_sockets_of_ten_cores(self):
        topo = xeon_e5_heterogeneous()
        assert topo.n_sockets == 2
        assert [s.n_physical_cores for s in topo.sockets] == [10, 10]

    def test_frequencies(self):
        topo = xeon_e5_heterogeneous()
        assert topo.sockets[0].freq_ghz == pytest.approx(2.33)
        assert topo.sockets[1].freq_ghz == pytest.approx(1.21)

    def test_smt_enabled(self):
        assert all(s.smt == 2 for s in xeon_e5_heterogeneous().sockets)

    def test_single_shared_controller(self):
        topo = xeon_e5_heterogeneous()
        assert topo.memory_controller_rate > 0
        # the slow socket's link is the narrow one
        rates = topo.socket_interconnect_rate
        assert rates[1] < rates[0]

    def test_heterogeneous(self):
        assert xeon_e5_heterogeneous().is_heterogeneous

    def test_max_freq_is_fast_socket(self):
        topo = xeon_e5_heterogeneous()
        assert topo.max_freq_hz == pytest.approx(2.33e9)

    def test_repr_mentions_frequencies(self):
        assert "2.33" in repr(xeon_e5_heterogeneous())
