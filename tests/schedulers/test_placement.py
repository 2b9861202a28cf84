"""The placement handed to ``decide``: columns that read as a mapping.

The engine hands every scheduler a :class:`Placement` (tids ascending,
vcores aligned, both read-only) and builds no dict.  Policies that read
it as a dict (cfs, dio, random, suspension, the example scheduler) must
decide exactly as they did on a dict, and Dike's stages read its columns:
every registered policy is run once, and its recorded ``decide`` calls
are replayed into two fresh schedulers, one fed the engine's placement
and one ``dict(placement)``; every quantum's actions must be equal, and
equal to the recorded run's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import build_engine
from repro.policies import REGISTRY
from repro.schedulers import Placement
from repro.workloads.suite import workload


class TestMapping:
    def test_reads_like_the_dict_in_tid_order(self):
        placement = Placement.of({5: 1, 2: 3, 9: 0})
        want = {2: 3, 5: 1, 9: 0}
        assert list(placement) == list(placement.keys()) == [2, 5, 9]
        assert list(placement.values()) == [3, 1, 0]
        assert list(placement.items()) == list(want.items())
        assert len(placement) == len(placement.values()) == 3
        assert placement == want and dict(placement) == want
        assert placement[5] == 1 and 5 in placement and 5 in placement.keys()
        assert 4 not in placement and placement.get(4) is None
        assert placement.get(4, -1) == -1
        with pytest.raises(KeyError):
            placement[4]
        assert placement.keys() - {2} == {5, 9}
        assert placement.items() & {(2, 3), (5, 0)} == {(2, 3)}
        assert {type(x) for x in (*placement, *placement.values(), placement[9])} == {int}
        assert repr(placement) == "Placement({2: 3, 5: 1, 9: 0})"

    def test_columns_are_read_only_int64(self):
        tids, vcores = np.array([1, 4]), np.array([0, 2])
        placement = Placement(tids, vcores)
        for column in (placement.tids, placement.vcores):
            assert column.dtype == np.int64 and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 7
        tids[0] = 3  # the caller's arrays stay writable
        assert placement.tids.tolist() == [3, 4]

    def test_of_keeps_a_placement_and_sorts_a_mapping(self):
        placement = Placement.of({3: 1, 1: 2})
        assert Placement.of(placement) is placement
        assert placement.tids.tolist() == [1, 3]
        assert placement.vcores.tolist() == [2, 1]
        assert len(Placement.of({})) == 0 and list(Placement.of({})) == []

    def test_numbers_that_are_not_tids_are_absent(self):
        placement = Placement.of({1: 0, 2: 1})
        for key in (1.5, -1, 0, 3, 2**70):
            assert key not in placement
            assert placement.get(key) is None
        assert 2.0 in placement and np.int64(1) in placement  # as in a dict

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 50), st.integers(0, 15), max_size=20),
        st.lists(st.integers(-3, 55), max_size=10),
    )
    def test_same_answers_as_the_sorted_dict(self, mapping, probes):
        placement, want = Placement.of(mapping), dict(sorted(mapping.items()))
        assert list(placement.items()) == list(want.items())
        for tid in probes:
            assert (tid in placement) == (tid in want)
            assert placement.get(tid) == want.get(tid)
        held = placement.holds(np.array(probes, dtype=np.int64))
        assert held.tolist() == [t in want for t in probes]
        if all(t in want for t in probes):
            assert placement.vcores_of(probes) == [want[t] for t in probes]
        else:
            first = next(t for t in probes if t not in want)
            with pytest.raises(KeyError, match=f"^{first}$"):
                placement.vcores_of(probes)


#: the LLC backend of a policy's run (the cache-aware two need one)
LLC = {"lfoc": "occupancy", "bliss": "occupancy"}


def recorded_run(policy: str):
    """One wl1 run of ``policy``: its context and every ``decide`` call,
    as ``(counters, placement, actions)``."""
    scheduler = REGISTRY.build(policy)
    decide, calls = scheduler.decide, []

    def recording(counters, placement):
        actions = tuple(decide(counters, placement))
        calls.append((counters, placement, actions))
        return actions

    recording.gate = getattr(decide, "gate", None)
    scheduler.decide = recording
    build_engine(
        workload("wl1"), scheduler, seed=7, work_scale=0.05, llc=LLC.get(policy)
    ).run()
    return scheduler.context, calls


class TestDecisionsOnColumnsEqualDecisionsOnDicts:
    @pytest.mark.parametrize("policy", REGISTRY.names())
    def test_every_quantum_same_actions(self, policy):
        context, calls = recorded_run(policy)
        assert calls or REGISTRY.build(policy).decide_gate() is not None  # static
        on_columns, on_dict = REGISTRY.build(policy), REGISTRY.build(policy)
        on_columns.prepare(context)
        on_dict.prepare(context)
        for counters, placement, actions in calls:
            assert type(placement) is Placement
            assert np.all(placement.tids[1:] > placement.tids[:-1])
            got = tuple(on_columns.decide(counters, placement))
            assert got == tuple(on_dict.decide(counters, dict(placement))) == actions
