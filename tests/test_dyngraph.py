import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnnlab as g
from grnnlab.batching import make_batches_fixed, make_batches_tbatch
from grnnlab.dropout import recurrent_mix, regular_dropout
from grnnlab.dynamics import run_batch
from grnnlab.gru import GruParameters, gru_forward

from test_batching import make_events, random_pairs


def zero_gru_model(m=3):
    shape = (m, 2 * m + 1)
    zeros = GruParameters(
        wz=np.zeros(shape), wr=np.zeros(shape), wn=np.zeros(shape),
        bz=np.zeros(m), br=np.zeros(m), bn=np.zeros(m),
    )
    model = g.init_model(g.Rng(0), m, 1, "regression")
    model.gru = zeros
    return model


def sequential(events):
    return g.Batch(events=list(events), strategy="sequential")


def test_zero_weight_gru_keeps_zero_store_unchanged():
    model = zero_gru_model()
    store = g.NodeStateStore.zeros(4, 3)
    run_batch(store, sequential(make_events([(0, 1)])), model)
    assert np.all(store.states == 0)  # 0.5 * 0 stays 0
    assert store.last_update_event[0] == 0 and store.last_update_event[1] == 0
    assert store.last_update_event[2] == -1


def test_sequential_second_event_sees_first_update():
    rng = g.Rng(1)
    model = g.init_model(rng, 2, 1, "regression")
    store = g.NodeStateStore.zeros(3, 2)
    events = make_events([(0, 1), (1, 2)])
    tape = g.Tape(model, store.num_nodes, len(events), 2 * len(events))
    pre = run_batch(store, sequential(events), model, tape)
    row = tape.writes[0, 1]  # event 0's update of node 1
    assert tape.reads[1, 0] == row
    c = tape.gru_cache([row])
    assert np.array_equal(pre[1, 0], ((1.0 - c.z) * c.h_prev + c.z * c.n)[0])


def test_parallel_reads_come_from_batch_start():
    rng = g.Rng(2)
    model = g.init_model(rng, 2, 1, "regression")
    store = g.NodeStateStore.zeros(3, 2)
    run_batch(store, sequential(make_events([(0, 1)])), model)  # make states nonzero
    snapshot = store.states.copy()
    events = make_events([(0, 1), (1, 2)])
    batch = make_batches_fixed(events, 10)[0]
    pre = run_batch(store, batch, model)
    # second event reads node 1 as it stood before the batch, not post-update
    assert np.array_equal(pre[1, 0], snapshot[1])


def test_fixed_parallel_drops_all_but_last_update():
    rng = g.Rng(3)
    model = g.init_model(rng, 3, 1, "regression")
    store = g.NodeStateStore.zeros(3, 3)
    x1, x2 = np.array([1.0]), np.array([2.0])
    events = [
        g.Event(index=0, src=0, dst=1, time=0.0, features=x1),
        g.Event(index=1, src=0, dst=2, time=1.0, features=x2),
    ]
    batch = make_batches_fixed(events, 10)[0]
    tape = g.Tape(model, store.num_nodes, len(events), batch.updates)
    run_batch(store, batch, model, tape)
    assert tape.writes[0, 0] == -1 and tape.n_rows == 3  # dropped, never computed
    assert tape.writes[0, 1] >= 0  # node 1 still updates from event 0
    assert tape.writes[1, 0] >= 0
    # collision law: node 0's state comes from its last in-batch event alone,
    # computed against batch-start states
    expected, _ = gru_forward(model.gru, np.zeros(3), np.concatenate((np.zeros(3), x2)))
    assert np.array_equal(store.states[0], expected)


def test_parallel_without_repeats_equals_sequential():
    rng = g.Rng(4)
    model = g.init_model(rng, 3, 1, "regression")
    events = make_events([(0, 1), (2, 3), (4, 5)])
    s1 = g.NodeStateStore.zeros(6, 3)
    run_batch(s1, sequential(events), model)
    s2 = g.NodeStateStore.zeros(6, 3)
    batch = make_batches_fixed(events, 10)[0]
    run_batch(s2, batch, model)
    assert np.array_equal(s1.states, s2.states)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 30), st.integers(2, 8), st.integers(2, 5))
def test_strategy_equivalence_bitwise(seed, n_events, n_nodes, m):
    """t-batched parallel, whole-stream sequential, and size-1 fixed batches
    must produce bit-identical trajectories, pre-update states and GRU cache
    rows."""
    events = make_events(random_pairs(seed, n_events, n_nodes))
    model = g.init_model(g.Rng(seed), m, 1, "regression")

    def run(batches):
        store = g.NodeStateStore.zeros(n_nodes, m)
        tape = g.Tape(model, n_nodes, n_events, 2 * n_events)
        pre, cells = {}, {}
        for batch in batches:
            for ev, h in zip(batch.events, run_batch(store, batch, model, tape)):
                pre[ev.index] = h
        for e in range(len(tape)):
            assert min(tape.writes[e]) >= 0  # no strategy here drops an update
            cells[tape.index[e]] = tape.cells[tape.writes[e]]  # src row, dst row
        return store.states, pre, cells

    seq = run([sequential(events)])
    for other in (run(make_batches_tbatch(events)), run(make_batches_fixed(events, 1))):
        assert np.array_equal(seq[0], other[0])
        for k in range(n_events):
            assert np.array_equal(seq[1][k], other[1][k])
            assert np.array_equal(seq[2][k], other[2][k])


def per_update_reference(store, batches, model, state_dropout):
    """Parallel batches one endpoint update at a time, in sequential order
    (events in order, src then dst, each node's last in-batch update only):
    the reference for run_batch's stacked rows. Returns the pre-update
    states and the tape arrays a forward over the batches should leave."""
    pres, cells, keep, writes = [], [], [], []
    for batch in batches:
        pre = np.array([store.states[[ev.src, ev.dst]] for ev in batch.events])
        for pos, ev in enumerate(batch.events):
            writes.append([-1, -1])
            for role, node in enumerate((ev.src, ev.dst)):
                if batch.last_event_per_node[node] != pos:
                    continue
                h_own = pre[pos, role]
                x_in = np.concatenate((pre[pos, 1 - role], ev.features))
                h_new, c = gru_forward(model.gru, h_own, x_in)
                mask = None
                if state_dropout is not None:
                    mask = state_dropout.rng.keep_mask(len(h_new), state_dropout.rate)
                    if state_dropout.kind == "regular":
                        h_new = regular_dropout(h_new, mask, state_dropout.rate)
                    else:
                        h_new = recurrent_mix(h_new, h_own, mask)
                store.states[node] = h_new
                store.last_update_event[node] = ev.index
                writes[-1][role] = len(cells)
                cells.append(np.concatenate((c.h_prev, c.x_in, c.z, c.r, c.n)))
                keep.append(mask)
        pres.append(pre)
    return pres, np.array(cells), keep, np.array(writes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.integers(2, 9), st.integers(1, 4),
       st.one_of(st.none(), st.integers(1, 8)), st.sampled_from([None, "regular", "recurrent"]))
def test_parallel_batches_match_per_update_loop(seed, n_events, n_nodes, m, size, kind):
    """Stacked rows of one GRU call and one dropout call per batch, with
    the batch's masks drawn in one call, give the bits, rng draws and tape
    rows of one update at a time. size None is t-batches; otherwise
    fixed_parallel batches, whose nodes repeat."""
    rng = np.random.default_rng(seed)
    events = [g.Event(index=k, src=s, dst=d, time=float(k), features=rng.standard_normal(2))
              for k, (s, d) in enumerate(random_pairs(seed, n_events, n_nodes))]
    batches = make_batches_tbatch(events) if size is None else make_batches_fixed(events, size)
    model = g.init_model(g.Rng(seed), m, 2, "regression")
    start = rng.standard_normal((n_nodes, m))

    def fresh():
        store = g.NodeStateStore.zeros(n_nodes, m)
        store.states[:] = start
        return store, None if kind is None else g.StateDropout(0.4, kind, g.Rng(seed + 1))

    store, dropout = fresh()
    tape = g.Tape(model, n_nodes, n_events, sum(batch.updates for batch in batches))
    pres = [run_batch(store, batch, model, tape, dropout, None,
                      None if dropout is None
                      else dropout.rng.keep_mask(batch.updates * m, dropout.rate).reshape(-1, m))
            for batch in batches]
    ref_store, ref_dropout = fresh()
    ref_pres, cells, keep, writes = per_update_reference(ref_store, batches, model, ref_dropout)

    assert store.states.tobytes() == ref_store.states.tobytes()
    assert np.array_equal(store.last_update_event, ref_store.last_update_event)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(pres, ref_pres))
    assert tape.n_rows == len(tape.cells) == len(cells)  # the tape was sized exactly
    assert tape.cells.tobytes() == cells.tobytes()
    assert np.array_equal(tape.writes, writes)
    if kind is not None:
        assert np.array_equal(tape.keep, np.array(keep))
        assert dropout.rng.next_u64() == ref_dropout.rng.next_u64()


def test_reset_semantics():
    store = g.NodeStateStore.zeros(3, 2)
    store.states[1] = [1.0, 2.0]
    store.last_update_event[1] = 5
    store.reset()
    assert np.all(store.states == 0)
    assert np.all(store.last_update_event == -1)
    again = store.reset()
    assert again is store and np.all(store.states == 0)


def test_unknown_node_id_raises():
    # sequential and parallel batches both name the first unknown node in
    # event order (src, dst, extra)
    model = g.init_model(g.Rng(0), 2, 1, "regression")
    for strategy, pairs in (("sequential", [(0, 1), (2, 7)]), ("t_batch", [(0, 1), (2, 7)]),
                            ("fixed_parallel", [(0, 1), (1, 2), (2, 7), (-1, 2)])):
        events = [g.Event(index=k, src=s, dst=d, time=float(k), features=np.zeros(1))
                  for k, (s, d) in enumerate(pairs)]
        batch = g.Batch(events=events, strategy=strategy)
        with pytest.raises(g.StructuralError, match="unknown node id 7 "):
            run_batch(g.NodeStateStore.zeros(3, 2), batch, model)
        extra = [-4] + [0] * (len(events) - 1)
        with pytest.raises(g.StructuralError, match="unknown node id -4 "):
            run_batch(g.NodeStateStore.zeros(3, 2), batch, model, extra_reads=extra)


@pytest.mark.parametrize("strategy", ["sequential", "t_batch", "fixed_parallel"])
def test_unknown_node_id_leaves_store_and_tape_untouched(strategy):
    # the ids are checked before any update: events ahead of the unknown
    # node change neither the store nor the tape
    model = g.init_model(g.Rng(0), 2, 1, "regression")
    store = g.NodeStateStore.zeros(5, 2)
    run_batch(store, sequential(make_events([(0, 3)])), model)  # make states nonzero
    states, last = store.states.copy(), store.last_update_event.copy()
    events = make_events([(0, 1), (2, 3), (4, 7)])
    tape = g.Tape(model, store.num_nodes, len(events), 2 * len(events))
    with pytest.raises(g.StructuralError, match="unknown node id 7 "):
        run_batch(store, g.Batch(events=events, strategy=strategy), model, tape)
    assert np.array_equal(store.states, states)
    assert np.array_equal(store.last_update_event, last)
    assert tape.n_events == 0 and tape.n_rows == 0


@pytest.mark.parametrize("strategy", ["sequential", "t_batch", "fixed_parallel"])
def test_state_dropout_without_keep_masks_raises(strategy):
    # run_batch draws no masks, so a state dropout without them is an error,
    # raised before any update, not a forward without dropout
    model = g.init_model(g.Rng(0), 2, 1, "regression")
    store = g.NodeStateStore.zeros(5, 2)
    batch = g.Batch(events=make_events([(0, 1), (2, 3)]), strategy=strategy)
    with pytest.raises(g.ParameterError, match="keep masks"):
        run_batch(store, batch, model, None, g.StateDropout(0.3, "regular", g.Rng(0)))
    assert not store.states.any() and (store.last_update_event == -1).all()
    run_batch(store, batch, model, None, g.StateDropout(0.0, "regular", g.Rng(0)))
    assert store.last_update_event.tolist() == [0, 0, 1, 1, -1]  # rate 0 needs none


def test_last_update_event_strictly_increases():
    events = make_events(random_pairs(9, 40, 5))
    model = g.init_model(g.Rng(9), 2, 1, "regression")
    store = g.NodeStateStore.zeros(5, 2)
    seen = {n: -1 for n in range(5)}
    for ev in events:
        run_batch(store, sequential([ev]), model)
        for n in (ev.src, ev.dst):
            assert store.last_update_event[n] > seen[n]
            seen[n] = store.last_update_event[n]


def test_event_self_loop_rejected():
    with pytest.raises(g.ParameterError):
        g.Event(index=0, src=3, dst=3, time=0.0, features=np.zeros(1))

