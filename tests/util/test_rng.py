"""Tests for deterministic hierarchical seeding."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import DEFAULT_SEED, derive_seed, make_rng, spawn


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_root_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_labels_change_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_label_path_depth_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_label_boundaries_unambiguous(self):
        # ("ab","c") must differ from ("a","bc") — separator soundness.
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_no_labels_is_valid(self):
        assert isinstance(derive_seed(42), int)

    def test_negative_root_supported(self):
        assert isinstance(derive_seed(-5, "x"), int)

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1), st.text(max_size=20))
    def test_result_in_63_bit_range(self, root, label):
        seed = derive_seed(root, label)
        assert 0 <= seed < 2**63


class TestMakeRng:
    def test_same_path_same_stream(self):
        a = make_rng(3, "x").random(5)
        b = make_rng(3, "x").random(5)
        assert np.array_equal(a, b)

    def test_different_paths_different_streams(self):
        a = make_rng(3, "x").random(5)
        b = make_rng(3, "y").random(5)
        assert not np.array_equal(a, b)

    def test_default_seed_used(self):
        a = make_rng().random(3)
        b = make_rng(DEFAULT_SEED).random(3)
        assert np.array_equal(a, b)


class TestSpawn:
    def test_one_generator_per_name(self):
        gens = spawn(0, ["a", "b", "c"])
        assert set(gens) == {"a", "b", "c"}

    def test_generators_independent(self):
        gens = spawn(0, ["a", "b"])
        assert not np.array_equal(gens["a"].random(4), gens["b"].random(4))
