import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnnlab as g
from grnnlab.batching import (assert_tbatch_valid, make_batches_fixed, make_batches_tbatch,
                              tbatch_levels)


def make_events(pairs):
    return [
        g.Event(index=k, src=s, dst=d, time=float(k), features=np.zeros(1))
        for k, (s, d) in enumerate(pairs)
    ]


def random_pairs(seed, n_events, n_nodes):
    rng = g.Rng(seed)
    pairs = []
    for _ in range(n_events):
        s = rng.randrange(n_nodes)
        d = rng.randrange(n_nodes - 1)
        if d >= s:
            d += 1
        pairs.append((s, d))
    return pairs


# fixed-size batching --------------------------------------------------------


def test_fixed_slicing_sizes():
    events = make_events(random_pairs(0, 5, 6))
    batches = make_batches_fixed(events, 2)
    assert [len(b.events) for b in batches] == [2, 2, 1]
    assert all(b.strategy == "fixed_parallel" for b in batches)


def test_fixed_thousand_events_batch_200():
    events = make_events(random_pairs(1, 1000, 50))
    assert len(make_batches_fixed(events, 200)) == 5


def test_fixed_size_one_is_all_singletons():
    events = make_events(random_pairs(2, 9, 5))
    batches = make_batches_fixed(events, 1)
    assert len(batches) == 9 and all(len(b.events) == 1 for b in batches)


def test_fixed_empty_and_errors():
    assert make_batches_fixed([], 3) == []
    with pytest.raises(g.ParameterError):
        make_batches_fixed(make_events([(0, 1)]), 0)
    with pytest.raises(g.ParameterError):
        make_batches_fixed(make_events([(0, 1)]), 2, strategy="t_batch")


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 40), st.integers(1, 9))
def test_fixed_preserves_multiset_and_order(seed, n_events, size):
    events = make_events(random_pairs(seed, n_events, 7))
    batches = make_batches_fixed(events, size)
    flattened = [ev for b in batches for ev in b.events]
    assert flattened == events
    assert [b.index for b in batches] == list(range(len(batches)))


def test_last_event_per_node_map():
    events = make_events([(0, 1), (0, 2), (1, 3)])
    (batch,) = make_batches_fixed(events, 10)
    assert batch.last_event_per_node == {0: 1, 1: 2, 2: 1, 3: 2}


# t-batching -----------------------------------------------------------------


def test_tbatch_disjoint_pairs_share_a_batch():
    batches = make_batches_tbatch(make_events([(0, 1), (2, 3)]))
    assert len(batches) == 1 and len(batches[0].events) == 2


def test_tbatch_chain_gives_singletons():
    # each event shares a node with the previous one
    batches = make_batches_tbatch(make_events([(0, 1), (1, 2), (2, 0)]))
    assert [len(b.events) for b in batches] == [1, 1, 1]


def test_tbatch_earliest_feasible_assignment():
    batches = make_batches_tbatch(make_events([(0, 1), (2, 3), (0, 2)]))
    assert [[ev.index for ev in b.events] for b in batches] == [[0, 1], [2]]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 60), st.integers(2, 10))
def test_tbatch_validity_and_greedy_recurrence(seed, n_events, n_nodes):
    events = make_events(random_pairs(seed, n_events, max(n_nodes, 2)))
    batches = make_batches_tbatch(events)
    for b in batches:
        assert_tbatch_valid(b)
    # order preserved overall
    flattened = [ev.index for b in batches for ev in sorted(b.events, key=lambda e: e.index)]
    assert sorted(flattened) == list(range(n_events))
    # brute-force recurrence: batch(k) = 1 + max over endpoint's previous batches
    batch_of_event = {}
    for b in batches:
        for ev in b.events:
            batch_of_event[ev.index] = b.index
    last: dict[int, int] = {}
    for ev in events:
        expected = max(last.get(ev.src, -1), last.get(ev.dst, -1)) + 1
        assert batch_of_event[ev.index] == expected
        last[ev.src] = expected
        last[ev.dst] = expected


def test_tbatch_within_batch_order_preserved():
    events = make_events([(0, 1), (2, 3), (4, 5), (0, 2)])
    batches = make_batches_tbatch(events)
    assert [ev.index for ev in batches[0].events] == [0, 1, 2]
    assert [ev.index for ev in batches[1].events] == [3]


def test_tbatch_levels_order_every_touched_node():
    # a third touched node (a link-ranking negative, read but not written)
    # orders its event after the last earlier one touching it, and the next
    # event touching it after this one
    touched = [(0, 1, 5), (2, 3, 4), (4, 6, 7), (8, 9, 0), (5, 10, 11)]
    assert tbatch_levels(touched) == [[0, 1], [2, 3, 4]]
    assert tbatch_levels([(0, 1, 2), (3, 4, 2), (2, 5, 6)]) == [[0], [1], [2]]
    assert tbatch_levels([]) == []
