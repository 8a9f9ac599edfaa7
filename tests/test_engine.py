import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnnlab as g
from grnnlab.accumulator import TILE
from grnnlab.adamw import AdamwState
from grnnlab.evalbench import load_jodie_csv, write_synthetic_linkstream
from grnnlab.oracles import epoch_loss_reference

from helpers import events_from_pairs, params_equal, random_instance


def epoch_gradient(events, model, mode, batching, **kwargs):
    """The gradient train_epoch applies in mode, taken on a copy of model."""
    return g.train_epoch(events, model.copy(), AdamwState(), mode, batching,
                         **kwargs)["gradient"]


# losses ----------------------------------------------------------------------


def test_mse_examples():
    val, grad = g.loss_mse(1.7, 1.7)
    assert val == 0.0 and grad == 0.0
    val, grad = g.loss_mse(2.0, 0.5)
    assert val == 2.25 and grad == 3.0


def test_bce_examples():
    for label in (0.0, 1.0):
        val, _ = g.loss_bce(0.0, label)
        assert abs(val - math.log(2)) < 1e-12
    _, grad = g.loss_bce(0.0, 1.0)
    assert abs(grad + 0.5) < 1e-12
    # stable at extreme logits
    val, _ = g.loss_bce(800.0, 1.0)
    assert val == 0.0
    val, _ = g.loss_bce(-800.0, 1.0)
    assert val == 800.0


def test_stacked_losses_have_the_scalar_losses_bits():
    # the array gradients stable_sigmoid(out) - labels and 2 (out - y), and
    # the values kept in math, equal loss_bce's and loss_mse's head by head
    rng = np.random.default_rng(0)
    special = np.repeat([0.0, -0.0, 700.0, -700.0, 36.7, -36.7, 1e-300, -1e-300], 2)
    out = np.concatenate((special, rng.normal(0.0, 1.0, 50_000), rng.normal(0.0, 40.0, 50_000)))
    labels = [1.0, 0.0] * (len(out) // 2)
    targets = rng.normal(0.0, 2.0, len(out)).tolist()
    for task, loss, want in (("link_ranking", g.loss_bce, labels),
                             ("regression", g.loss_mse, targets)):
        values, grads = g.engine._head_losses(out, want, task)
        ref = np.array([loss(o, t) for o, t in zip(out.tolist(), want)])
        assert np.array(values).tobytes() == ref[:, 0].tobytes(), task
        assert grads.ravel().tobytes() == ref[:, 1].tobytes(), task


# forward ---------------------------------------------------------------------


def test_forward_empty_epoch():
    model = g.init_model(g.Rng(0), 3, 1, "regression")
    store = g.NodeStateStore.zeros(2, 3)
    fw = g.forward_epoch([], model, store, g.BatchingConfig("sequential", None))
    assert fw.total_loss == 0.0 and len(fw.tape) == 0


def test_zero_weight_model_predicts_zero_loss_is_baseline():
    cfg = g.SyntheticConfig(memory=1, num_nodes=8, edges_per_epoch=30)
    events = g.generate_epoch(cfg, g.Rng(1).substream("data"))
    model = g.init_model(g.Rng(1), 4, 1, "regression")
    for p in model.named_params().values():
        p.fill(0.0)
    store = g.NodeStateStore.zeros(8, 4)
    fw = g.forward_epoch(events, model, store, g.BatchingConfig("sequential", None))
    assert abs(fw.total_loss / len(events) - g.baseline_mse(events)) < 1e-12


def test_three_event_loss_matches_straight_line_recomputation():
    events = events_from_pairs([(0, 1), (1, 2), (0, 2)], [0.5, -1.0, 2.0], memory=1)
    model = g.init_model(g.Rng(7), 2, 1, "regression")
    store = g.NodeStateStore.zeros(3, 2)
    batching = g.BatchingConfig("sequential", None)
    fw = g.forward_epoch(events, model, store, batching)
    ref = float(epoch_loss_reference(model.named_params(), events, 3, 2, "sequential", None))
    assert abs(fw.total_loss - ref) <= 1e-12


def test_forward_nan_loss_reports_event_index():
    events = events_from_pairs([(0, 1), (1, 2)], [1.0, 1.0], memory=1)
    model = g.init_model(g.Rng(2), 2, 1, "regression")
    model.mlp.w2[:] = 1e200
    model.mlp.b2[:] = 1e200
    store = g.NodeStateStore.zeros(3, 2)
    with pytest.raises(g.NumericalError, match="event"):
        g.forward_epoch(events, model, store, g.BatchingConfig("sequential", None))


def test_truncated_window_names_the_first_non_finite_event_in_event_order():
    # events 1 and 2 have NaN features; event 2 touches no earlier event's
    # node, so it sits in the window's first level and event 1, after event
    # 0 on node 0, in the second: the window checks its losses in event
    # order and names event 1, as sequential processing does
    events = events_from_pairs([(0, 1), (0, 2), (3, 4)], [1.0, 1.0, 1.0], memory=1)
    for ev in events[1:]:
        ev.features[:] = np.nan
    assert g.batching.tbatch_levels((ev.src, ev.dst) for ev in events) == [[0, 2], [1]]
    model = g.init_model(g.Rng(2), 2, 1, "regression")
    with pytest.raises(g.NumericalError, match=r"non-finite loss at event 1$"):
        g.train_epoch(events, model, AdamwState(), "t_bptt", g.BatchingConfig("sequential", 1),
                      num_nodes=5)


@pytest.mark.parametrize("mode,strategy,size", [("t_bptt", "sequential", None),
                                                ("t_bptt", "sequential", 1),
                                                ("t_bptt", "sequential", 2),
                                                ("forward", "fixed_parallel", 2)])
def test_overflowing_stacked_regression_loss_names_an_event(mode, strategy, size):
    # a stacked head output near 1e200 squares to inf as loss_mse's scalar
    # does, with no overflow warning, and the loss check names the event
    events = events_from_pairs([(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0], memory=1)
    model = g.init_model(g.Rng(2), 2, 1, "regression")
    model.mlp.w2[:] = 1e200
    model.mlp.b2[:] = 1e200
    batching = g.BatchingConfig(strategy, size)
    with pytest.raises(g.NumericalError, match="event"):
        if mode == "forward":
            g.forward_epoch(events, model, g.NodeStateStore.zeros(4, 2), batching)
        else:
            g.train_epoch(events, model, AdamwState(), mode, batching, num_nodes=4)


# backward exactness -----------------------------------------------------------


def test_backward_full_matches_finite_differences_ten_events():
    err, _ = g.epoch_gradient_check(g.Rng(3), 4, 2, 6, 10,
                                    g.BatchingConfig("sequential", None), "f_bptt")
    assert err <= 1e-5


def test_single_event_truncated_equals_full():
    events = events_from_pairs([(0, 1)], [1.3], memory=1)
    model = g.init_model(g.Rng(4), 3, 1, "regression")
    batching = g.BatchingConfig("sequential", 1)
    full = epoch_gradient(events, model, "f_bptt", batching, num_nodes=2)
    trunc = epoch_gradient(events, model, "t_bptt", batching, num_nodes=2)
    assert params_equal(full, trunc)


def test_one_spanning_batch_truncated_equals_full_bitwise():
    cfg, events, model, _ = random_instance(42)
    batching = g.BatchingConfig("sequential", None)
    full = epoch_gradient(events, model, "f_bptt", batching, num_nodes=cfg.num_nodes)
    trunc = epoch_gradient(events, model, "t_bptt", batching, num_nodes=cfg.num_nodes)
    assert params_equal(full, trunc)


def test_gradient_additivity_over_disconnected_components():
    # two node-pair groups that never interact: epoch gradient = sum of parts
    pairs_a, xs_a = [(0, 1), (0, 1), (1, 0)], [0.3, -0.8, 1.1]
    pairs_b, xs_b = [(2, 3), (3, 2)], [0.9, 0.2]
    model = g.init_model(g.Rng(5), 3, 1, "regression")
    batching = g.BatchingConfig("sequential", None)

    def grads(events, n_nodes):
        return epoch_gradient(events, model, "f_bptt", batching, num_nodes=n_nodes)

    both = events_from_pairs(pairs_a + pairs_b, xs_a + xs_b, memory=1)
    # reindex to keep timestamps/order valid while interleaving is irrelevant here
    g_both = grads(both, 4)
    g_a = grads(events_from_pairs(pairs_a, xs_a, memory=1), 4)
    g_b = grads(events_from_pairs(pairs_b, xs_b, memory=1), 4)
    for k in g_both:
        assert np.allclose(g_both[k], g_a[k] + g_b[k], atol=1e-12)


def test_per_edge_truncation_diverges_from_full_on_20_events():
    cfg = g.SyntheticConfig(memory=2, num_nodes=5, edges_per_epoch=20)
    events = g.generate_epoch(cfg, g.Rng(6).substream("data"))
    model = g.init_model(g.Rng(6).substream("init"), 4, 1, "regression")
    batching = g.BatchingConfig("sequential", 1)  # per-edge batches
    full = epoch_gradient(events, model, "f_bptt", batching, num_nodes=5)
    trunc = epoch_gradient(events, model, "t_bptt", batching, num_nodes=5)
    va = np.concatenate([full[k].ravel() for k in sorted(full)])
    vt = np.concatenate([trunc[k].ravel() for k in sorted(trunc)])
    cos = float(va @ vt / (np.linalg.norm(va) * np.linalg.norm(vt)))
    assert cos < 1.0 - 1e-6
    # one-hop tails keep the recurrent cell trainable under truncation
    gru_norm = math.sqrt(sum(float((v * v).sum())
                             for k, v in trunc.items() if k.startswith("gru")))
    assert gru_norm > 0.0


def test_truncation_vacuous_when_batches_share_no_nodes():
    # batch 0 touches {0,1}, batch 1 touches {2,3}: no cross-batch reads
    events = events_from_pairs([(0, 1), (0, 1), (2, 3), (3, 2)], [1.0, -0.5, 0.3, 0.8], memory=1)
    model = g.init_model(g.Rng(8), 3, 1, "regression")
    batching = g.BatchingConfig("sequential", 2)
    full = epoch_gradient(events, model, "f_bptt", batching, num_nodes=4)
    trunc = epoch_gradient(events, model, "t_bptt", batching, num_nodes=4)
    for k in full:
        assert np.allclose(full[k], trunc[k], atol=1e-12), k


def test_backward_exact_across_all_strategies_random_instances():
    for seed in (11, 12, 13, 14, 15, 16):
        cfg, events, model, batching = random_instance(seed, max_events=14, max_m=5)
        err, _ = g.epoch_gradient_check(
            g.Rng(seed), model.m, cfg.memory, cfg.num_nodes, len(events), batching,
            "f_bptt", max_coords_per_tensor=20,
        )
        assert err <= 1e-5, (seed, batching, err)


@pytest.mark.parametrize("seed", [21, 22, 23, 24, 25, 26])
def test_full_gradient_does_not_depend_on_batching(seed):
    # the reverse sweep runs in (dependency level, event index) order, which
    # the batching does not change; no dropout, since negatives and masks are
    # drawn in batch order
    cfg, events, model, _ = random_instance(seed, max_events=40)
    grads = [epoch_gradient(events, model, "f_bptt", g.BatchingConfig(strategy, size),
                            num_nodes=cfg.num_nodes)
             for strategy, size in (("sequential", None), ("sequential", 7), ("t_batch", None),
                                    ("fixed_parallel", 1))]
    for other in grads[1:]:
        assert params_equal(grads[0], other)


def test_full_gradient_gathers_vector_and_stacked_heads(monkeypatch):
    # fixed_parallel batches of two that repeat no node compute what
    # sequential does. The last batch's lone event is scored by a vector
    # mlp_forward call and shares dependency level 1 with the second
    # batch's (0, 2), scored as a stacked row, so the sweep rebuilds both
    # heads from the tape into one two-row mlp_backward call
    rows = []
    kernel = g.engine.mlp_backward

    def counting(params, cache, grad, acc):
        rows.append(len(cache.x))
        return kernel(params, cache, grad, acc)

    pairs = [(0, 1), (2, 3), (4, 5), (0, 2), (1, 4)]
    events = events_from_pairs(pairs, [0.3, -1.2, 0.7, 0.1, -0.4], memory=1)
    model = g.init_model(g.Rng(7), 3, 1, "regression")
    full = epoch_gradient(events, model, "f_bptt", g.BatchingConfig("sequential", None),
                          num_nodes=6)
    monkeypatch.setattr(g.engine, "mlp_backward", counting)
    stacked = epoch_gradient(events, model, "f_bptt", g.BatchingConfig("fixed_parallel", 2),
                             num_nodes=6)
    assert rows == [2, 3]  # level 1, then level 0
    assert params_equal(full, stacked)


def _head_rows(x, a1, mask):
    """(input, mask, hidden activation) bytes of each head row."""
    x, a1 = np.atleast_2d(x), np.atleast_2d(a1)
    masks = [b""] * len(x) if mask is None else [row.tobytes() for row in np.atleast_2d(mask)]
    return [(xr.tobytes(), mr, ar.tobytes()) for xr, mr, ar in zip(x, masks, a1)]


@settings(max_examples=40, deadline=None)
@given(batching=st.sampled_from([("sequential", 3), ("sequential", None), ("t_batch", None),
                                 ("fixed_parallel", 4)]),
       task=st.sampled_from(["regression", "link_ranking"]),
       rate=st.sampled_from([0.0, 0.3]),
       mode=st.sampled_from(["f_bptt", "t_bptt"]),
       seed=st.integers(0, 2**20))
def test_sweep_recomputes_the_forward_hidden_layer_bits(batching, task, rate, mode, seed):
    # every head's hidden layer, recomputed in the sweep from the tape's head
    # inputs and dropout masks, has the bytes mlp_forward computed, once
    rng = g.Rng(seed)
    cfg = g.SyntheticConfig(memory=2, num_nodes=3 + rng.randrange(6),
                            edges_per_epoch=2 + rng.randrange(25))
    events = g.generate_epoch(cfg, rng.substream("data"))
    model = g.init_model(rng.substream("init"), 2 + rng.randrange(5), 1, task)
    forward, hidden = g.engine.mlp_forward, g.engine.mlp_hidden
    scored, recomputed = Counter(), Counter()

    def recording_forward(params, x, **kwargs):
        out, cache = forward(params, x, **kwargs)
        scored.update(_head_rows(x, cache.a1, cache.drop_mask))
        return out, cache

    def recording_hidden(params, x, mask, scale):
        a1 = hidden(params, x, mask, scale)
        recomputed.update(_head_rows(x, a1, mask))
        return a1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(g.engine, "mlp_forward", recording_forward)
        patch.setattr(g.engine, "mlp_hidden", recording_hidden)
        g.train_epoch(events, model, AdamwState(), mode, g.BatchingConfig(*batching),
                      task=task, rng=rng.substream("negatives"),
                      neg_universe=np.arange(cfg.num_nodes), mlp_dropout=rate,
                      dropout_rng=rng.substream("dropout"), num_nodes=cfg.num_nodes)
    heads = 2 if task == "link_ranking" else 1
    assert sum(scored.values()) == heads * len(events)
    assert recomputed == scored


def test_link_tape_is_arrays_of_the_closed_form_size(tmp_path):
    # an F-BPTT link-ranking tape with MLP and state dropout keeps per row
    # one record (GRU cache, keep mask), per event its links, its src,
    # dst and extra states, two loss gradients and two hidden masks, and per
    # node its producing row, in arrays only: no Python object grows with
    # the events or calls.
    # m = 8 keeps the records free of alignment padding
    path = str(tmp_path / "stream.csv")
    write_synthetic_linkstream(path, num_events=120, num_users=15, num_items=6,
                               feat_dim=2, seed=3)
    dataset = load_jodie_csv(path)
    m, d_in = 8, 8 + dataset.feat_dim
    model = g.init_model(g.Rng(31), m, dataset.feat_dim, "link_ranking")
    hidden = model.mlp.hidden

    def tape_of(events):
        batching = g.BatchingConfig("fixed_parallel", 16)
        store = g.NodeStateStore.zeros(dataset.num_nodes, m)
        fw = g.forward_epoch(events, model, store, batching, task="link_ranking",
                             rng=g.Rng(5), neg_universe=dataset.destinations,
                             state_dropout=g.StateDropout(0.2, "regular", g.Rng(6)),
                             mlp_dropout=0.3, dropout_rng=g.Rng(7), training=True)
        rows = sum(b.updates for b in g.build_batches(events, batching))
        return fw.tape, rows

    sizes = []
    for n in (60, 120):
        tape, rows = tape_of(dataset.events[:n])
        arrays = [v for v in vars(tape).values() if isinstance(v, np.ndarray) and v.base is None]
        closed = (rows * (8 * (4 * m + d_in) + m) + n * (6 * 8 + 3 * m * 8 + 2 * 8 + 2 * hidden)
                  + 8 * dataset.num_nodes)
        assert sum(a.nbytes for a in arrays) == closed
        assert len(tape.producer) == dataset.num_nodes  # one entry per node
        sizes.append({k: len(v) for k, v in vars(tape).items()
                      if isinstance(v, (list, tuple, dict))})
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("strategy,size", [("sequential", 1), ("sequential", 3),
                                           ("t_batch", None), ("fixed_parallel", 2),
                                           ("fixed_parallel", 3), ("fixed_parallel", 5)])
def test_truncated_gradient_matches_one_hop_oracle(strategy, size):
    # the T-BPTT gradient training applies equals the gradient of the one-hop
    # truncated reference loss. Where reads lie two or more batches
    # downstream, the F-BPTT gradient must fail the same check. Batches of 5
    # make two batches, so one hop is the whole history there and F-BPTT
    # passes it too; their second batch reads 4 earlier rows through 7
    # reads, whose tails are summed per row
    batching = g.BatchingConfig(strategy, size)
    err, trunc = g.epoch_gradient_check(g.Rng(3), 4, 2, 6, 10, batching, "t_bptt")
    assert err <= 1e-5
    err_full, full = g.epoch_gradient_check(g.Rng(3), 4, 2, 6, 10, batching, "f_bptt",
                                            oracle="t_bptt")
    if size == 5:
        assert err_full <= 1e-5
    else:
        assert err_full > 0.1
        assert not params_equal(full, trunc)


# training loop -----------------------------------------------------------------


def test_zero_learning_rate_leaves_parameters_unchanged():
    cfg = g.SyntheticConfig(memory=1, num_nodes=6, edges_per_epoch=12)
    events = g.generate_epoch(cfg, g.Rng(1).substream("data"))
    model = g.init_model(g.Rng(1), 3, 1, "regression")
    before = {k: v.copy() for k, v in model.named_params().items()}
    opt = AdamwState(lr=0.0, weight_decay=1e-4)
    stats = g.train_epoch(events, model, opt, "f_bptt",
                          g.BatchingConfig("sequential", None), num_nodes=6)
    assert params_equal(before, model.named_params())
    assert stats["mean_loss"] > 0


def test_modes_identical_with_single_spanning_batch():
    cfg = g.SyntheticConfig(memory=1, num_nodes=8, edges_per_epoch=25)
    batching = g.BatchingConfig("sequential", None)
    results = {}
    for mode in ("f_bptt", "t_bptt"):
        root = g.Rng(9)
        model = g.init_model(root.substream("init"), 4, 1, "regression")
        opt = AdamwState(lr=1e-3, weight_decay=1e-4)
        data_rng = root.substream("data")
        store = g.NodeStateStore.zeros(8, 4)
        curve = []
        for _ in range(3):
            events = g.generate_epoch(cfg, data_rng)
            curve.append(g.train_epoch(events, model, opt, mode, batching, store=store)["mean_loss"])
        results[mode] = (curve, {k: v.copy() for k, v in model.named_params().items()})
    assert results["f_bptt"][0] == results["t_bptt"][0]
    assert params_equal(results["f_bptt"][1], results["t_bptt"][1])


def test_determinism_bit_identical_loss_curves():
    def run():
        cfg = g.SyntheticConfig(memory=2, num_nodes=10, edges_per_epoch=40)
        root = g.Rng(77)
        model = g.init_model(root.substream("init"), 4, 1, "regression")
        opt = AdamwState(lr=1e-3, weight_decay=1e-4)
        data_rng = root.substream("data")
        store = g.NodeStateStore.zeros(10, 4)
        curve = []
        for _ in range(5):
            events = g.generate_epoch(cfg, data_rng)
            curve.append(
                g.train_epoch(events, model, opt, "t_bptt",
                              g.BatchingConfig("sequential", 1), store=store)["mean_loss"]
            )
        return curve, model.named_params()

    c1, p1 = run()
    c2, p2 = run()
    assert c1 == c2
    assert params_equal(p1, p2)


@pytest.mark.parametrize("mode,batching", [("f_bptt", ("sequential", None)),
                                          ("t_bptt", ("sequential", 1))])
def test_backward_calls_take_at_most_a_tile_of_rows(monkeypatch, mode, batching):
    # F-BPTT: level 0 of this sparse graph holds more than TILE updates;
    # T-BPTT with batches of one runs every update as a cross-batch tail
    rows = []
    kernel = g.engine.gru_backward

    def counting(params, cache, grad_h_new, acc):
        rows.append(len(grad_h_new))
        return kernel(params, cache, grad_h_new, acc)

    monkeypatch.setattr(g.engine, "gru_backward", counting)
    cfg = g.SyntheticConfig(memory=1, num_nodes=300, edges_per_epoch=400)
    events = g.generate_epoch(cfg, g.Rng(5).substream("data"))
    model = g.init_model(g.Rng(5).substream("init"), 3, 1, "regression")
    g.train_epoch(events, model, AdamwState(), mode, g.BatchingConfig(*batching),
                  num_nodes=cfg.num_nodes)
    assert max(rows) == TILE


def test_truncated_tails_run_one_row_per_earlier_row(tmp_path, monkeypatch):
    # fixed_parallel link ranking reads every state from the batch-start
    # snapshot, and src, dst and the negatives read some earlier-batch rows
    # more than once: T-BPTT runs one tail row per distinct row a batch reads
    rows = []
    kernel = g.engine.gru_backward

    def counting(params, cache, grad_h_new, acc):
        rows.append(len(grad_h_new))
        return kernel(params, cache, grad_h_new, acc)

    path = str(tmp_path / "stream.csv")
    write_synthetic_linkstream(path, num_events=120, num_users=15, num_items=6,
                               feat_dim=2, seed=3)
    dataset = load_jodie_csv(path)
    model = g.init_model(g.Rng(31), 4, dataset.feat_dim, "link_ranking")
    batching = g.BatchingConfig("fixed_parallel", 16)
    monkeypatch.setattr(g.engine, "gru_backward", counting)
    g.train_epoch(dataset.events, model.copy(), AdamwState(), "t_bptt", batching,
                  task="link_ranking", rng=g.Rng(5), neg_universe=dataset.destinations,
                  num_nodes=dataset.num_nodes)

    # reference: the same negatives, and the rows each batch reads on an
    # epoch tape; rows below the batch's first row are earlier batches'
    neg_rng, store = g.Rng(5), g.NodeStateStore.zeros(dataset.num_nodes, model.m)
    tape = g.Tape(model, store.num_nodes, len(dataset.events), 2 * len(dataset.events))
    distinct = reads = 0
    for batch in g.build_batches(dataset.events, batching):
        extra = g.engine.sample_negatives(dataset.destinations, neg_rng, len(batch.events))
        first_row, first_event = tape.n_rows, len(tape)
        g.run_batch(store, batch, model, tape, None, extra)
        read = tape.reads[first_event : len(tape)].ravel().tolist()
        earlier = [row for row in read if 0 <= row < first_row]
        distinct += len(set(earlier))
        reads += len(earlier)
    assert sum(rows) == distinct
    assert distinct < reads


def window_updates(batches):
    """The updates of each truncated-training window: consecutive batches,
    closed after the batch that brings the window to TILE updates."""
    windows, updates = [], 0
    for batch in batches:
        updates += batch.updates
        if updates >= TILE:
            windows.append(updates)
            updates = 0
    return windows + [updates] if updates else windows


@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
@pytest.mark.parametrize("strategy,size", [("sequential", None), ("sequential", 1),
                                           ("sequential", 7), ("t_batch", None),
                                           ("fixed_parallel", 5)])
def test_peak_live_records_is_the_tapes_rows(monkeypatch, mode, strategy, size):
    # the reported memory is the update rows the preallocated tape pins, as
    # each sweep sees them: the epoch's updates for F-BPTT, the nodes plus
    # the largest window's updates for T-BPTT
    seen = []
    sweep = g.engine._backward_records

    def watching(tape, *args):
        seen.append(len(tape.records))
        return sweep(tape, *args)

    monkeypatch.setattr(g.engine, "_backward_records", watching)
    batching = g.BatchingConfig(strategy, size)
    for seed, memory, nodes, edges in ((2, 1, 6, 30), (4, 2, 9, 60), (6, 2, 9, 300)):
        cfg = g.SyntheticConfig(memory=memory, num_nodes=nodes, edges_per_epoch=edges)
        events = g.generate_epoch(cfg, g.Rng(seed).substream("data"))
        model = g.init_model(g.Rng(seed).substream("init"), 3, 1, "regression")
        batches = g.build_batches(events, batching)
        seen.clear()
        stats = g.train_epoch(events, model, AdamwState(lr=1e-3, weight_decay=0.0), mode,
                              batching, num_nodes=nodes)
        epoch_rows = sum(b.updates for b in batches)
        if mode == "f_bptt":
            rows = epoch_rows
        else:
            windows = window_updates(batches)
            rows = nodes + max(windows)
            assert max(windows) <= TILE - 1 + max(b.updates for b in batches)
            if len(windows) > 1:  # streaming keeps less than the epoch
                assert stats["peak_live_records"] < epoch_rows
        assert stats["peak_live_records"] == rows
        assert set(seen) == {rows}


@pytest.mark.parametrize("strategy,size", [("sequential", 7), ("t_batch", None),
                                           ("fixed_parallel", 25)])
def test_t_bptt_tape_holds_nodes_plus_one_window(monkeypatch, strategy, size):
    cfg = g.SyntheticConfig(memory=2, num_nodes=50, edges_per_epoch=400)
    events = g.generate_epoch(cfg, g.Rng(6).substream("data"))
    model = g.init_model(g.Rng(6).substream("init"), 3, 1, "regression")
    batching = g.BatchingConfig(strategy, size)
    batches = g.build_batches(events, batching)
    windows = window_updates(batches)
    bound = cfg.num_nodes + TILE - 1 + 2 * max(len(batch.events) for batch in batches)
    seen = []  # (rows in use, rows allocated) at each window's sweep
    sweep = g.engine._backward_records

    def watching(tape, *args):
        seen.append((tape.n_rows, len(tape.cells)))
        return sweep(tape, *args)

    monkeypatch.setattr(g.engine, "_backward_records", watching)
    g.train_epoch(events, model, AdamwState(), "t_bptt", batching, num_nodes=cfg.num_nodes)
    assert len(seen) == len(windows) > 1  # one sweep per window
    assert [used - cfg.num_nodes for used, _ in seen] == windows
    assert max(allocated for _, allocated in seen) <= bound
    # the rows are sized by the largest window's computed updates
    assert {allocated for _, allocated in seen} == {cfg.num_nodes + max(windows)}


@pytest.mark.parametrize("task,size", [("regression", 1), ("regression", 3),
                                       ("link_ranking", 5)])
def test_window_levels_leave_the_per_event_tape(tmp_path, task, size):
    # the levels fill each event's slot and rows, its heads and the store as
    # per-event sequential processing does, drawing the same values from
    # every stream (negatives, then state, then head dropout, per batch)
    if task == "regression":
        cfg = g.SyntheticConfig(memory=2, num_nodes=12, edges_per_epoch=40)
        events = g.generate_epoch(cfg, g.Rng(9).substream("data"))
        model = g.init_model(g.Rng(9).substream("init"), 5, 1, task)

        def kwargs():
            return dict(task=task, num_nodes=cfg.num_nodes)
    else:
        path = str(tmp_path / "stream.csv")
        write_synthetic_linkstream(path, num_events=60, num_users=8, num_items=4,
                                   feat_dim=2, seed=3)
        dataset = load_jodie_csv(path)
        events = dataset.events
        model = g.init_model(g.Rng(31), 4, dataset.feat_dim, task)

        def kwargs():
            dropout_rng = g.Rng(7)
            return dict(task=task, rng=g.Rng(5), neg_universe=dataset.destinations,
                        state_dropout=g.StateDropout(0.3, "recurrent", dropout_rng),
                        mlp_dropout=0.2, dropout_rng=dropout_rng, num_nodes=dataset.num_nodes)

    window = g.build_batches(events, g.BatchingConfig("sequential", size))
    runs = []  # one window on a fresh tape and store, in levels and per event
    for per_event in (False, True):
        store = g.NodeStateStore.zeros(kwargs()["num_nodes"], model.m)
        tape = g.Tape(model, store.num_nodes, len(events), 2 * len(events))
        tape.records.view(np.uint8).fill(0)  # so padding and unused keep masks compare
        kw = kwargs()
        del kw["num_nodes"]
        kw["training"] = True
        losses = list(g.engine._forward(window, model, store, tape, per_event=per_event, **kw))
        runs.append((tape, store, losses, kw))
    (levels, store_l, loss_l, kw_l), (per_event, store_e, loss_e, kw_e) = runs
    assert len(g.batching.tbatch_levels((ev.src, ev.dst) for ev in events)) < len(events)
    assert loss_l == loss_e
    for name in ("links", "records", "head_in", "head_grad", "head_mask"):
        a, b = getattr(levels, name), getattr(per_event, name)
        assert (a is None) == (b is None) == (name == "head_mask" and task == "regression")
        assert a is None or a.tobytes() == b.tobytes(), name
    assert np.array_equal(levels.producer, per_event.producer)
    assert (levels.n_events, levels.n_rows, levels.drop_scale) == (
        per_event.n_events, per_event.n_rows, per_event.drop_scale)
    assert store_l.states.tobytes() == store_e.states.tobytes()
    assert np.array_equal(store_l.last_update_event, store_e.last_update_event)
    for stream in ("rng", "dropout_rng"):
        if stream in kw_l:
            assert kw_l[stream].next_u64() == kw_e[stream].next_u64()


def per_event_losses(batches, model, store, tape, task, training=False, rng=None,
                     neg_universe=None, state_dropout=None, mlp_dropout=0.0, dropout_rng=None):
    """The reference forward: each batch draws its negatives, then its state
    masks update by update, runs through run_batch and scores event by event
    (drawing each event's head masks, head by head), all from the live
    streams. Yields each batch's summed loss."""
    heads = 2 if task == "link_ranking" else 1
    for batch in batches:
        extra = keep = None
        if task == "link_ranking":
            extra = g.engine.sample_negatives(neg_universe, rng, len(batch.events))
        if state_dropout is not None:
            keep = np.array([state_dropout.rng.keep_mask(model.m, state_dropout.rate)
                             for _ in range(batch.updates)])
        pre = g.run_batch(store, batch, model, tape, state_dropout, extra, keep)
        batch_loss = 0.0
        for e, ev in enumerate(batch.events):
            mask, scale = None, 1.0
            if training and mlp_dropout > 0.0:
                mask = np.array([dropout_rng.keep_mask(model.mlp.hidden, mlp_dropout)
                                 for _ in range(heads)])
                scale = 1.0 / (1.0 - mlp_dropout)
            for loss in g.engine._predict_and_score([ev], pre[e : e + 1], tape, model, task,
                                                    mask, scale):
                batch_loss += loss
        yield batch_loss


class ZeroedTape(g.Tape):
    """A Tape whose records start zeroed, so padding and keep masks no
    update wrote compare equal."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records.view(np.uint8).fill(0)


@pytest.mark.parametrize("size", [None, 1, 5])
@pytest.mark.parametrize("dropout", [None, "regular", "recurrent"])
@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("task", ["regression", "link_ranking"])
def test_forward_epoch_levels_match_the_per_event_loop(tmp_path, monkeypatch, task, record,
                                                       dropout, size):
    # forward_epoch runs sequential batches as one window of levels, with
    # its draws made ahead; per-event processing from the live streams must
    # leave the same loss, store, tape and rng streams, bit for bit. dropout
    # None runs without training, with the dropout arguments given all the
    # same
    if task == "regression":
        cfg = g.SyntheticConfig(memory=2, num_nodes=12, edges_per_epoch=40)
        events = g.generate_epoch(cfg, g.Rng(9).substream("data"))
        model = g.init_model(g.Rng(9).substream("init"), 5, 1, task)
        num_nodes, universe = cfg.num_nodes, None
    else:
        path = str(tmp_path / "stream.csv")
        write_synthetic_linkstream(path, num_events=60, num_users=8, num_items=4,
                                   feat_dim=2, seed=3)
        dataset = load_jodie_csv(path)
        events, num_nodes, universe = dataset.events, dataset.num_nodes, dataset.destinations
        model = g.init_model(g.Rng(31), 4, dataset.feat_dim, task)

    def kwargs():
        dropout_rng = g.Rng(7)
        return dict(task=task, rng=g.Rng(5) if universe is not None else None,
                    neg_universe=universe,
                    state_dropout=g.StateDropout(0.3, dropout or "regular", dropout_rng),
                    mlp_dropout=0.2, dropout_rng=dropout_rng, training=dropout is not None)

    monkeypatch.setattr(g.engine, "Tape", ZeroedTape)
    batching = g.BatchingConfig("sequential", size)
    store_l = g.NodeStateStore.zeros(num_nodes, model.m)
    kw_l = kwargs()
    fw = g.forward_epoch(events, model, store_l, batching, record=record, **kw_l)
    store_e = g.NodeStateStore.zeros(num_nodes, model.m)
    kw_e = kwargs()
    batches = g.build_batches(events, batching)
    tape = ZeroedTape(model, num_nodes, len(events), 2 * len(events)) if record else None
    if not kw_e["training"]:
        kw_e["state_dropout"] = None
    total = 0.0
    for batch_loss in per_event_losses(batches, model, store_e, tape, **kw_e):
        total += batch_loss
    assert len(g.batching.tbatch_levels((ev.src, ev.dst) for ev in events)) < len(events)
    assert fw.total_loss == total
    assert store_l.states.tobytes() == store_e.states.tobytes()
    assert np.array_equal(store_l.last_update_event, store_e.last_update_event)
    assert (fw.tape is None) == (tape is None) == (not record)
    if record:
        for name in ("links", "records", "head_in", "head_grad", "head_mask"):
            a, b = getattr(fw.tape, name), getattr(tape, name)
            unmasked = name == "head_mask" and dropout is None
            assert (a is None) == (b is None) == unmasked, name
            assert a is None or a.tobytes() == b.tobytes(), name
    for stream in ("rng", "dropout_rng"):
        if kw_l[stream] is not None:
            assert kw_l[stream].next_u64() == kw_e[stream].next_u64(), stream


@pytest.mark.parametrize("size", [None, 1, 5])
def test_sequential_advance_states_matches_per_event_run_batch(size):
    # whatever the batch size, a sequential warm-up leaves the store that
    # one run_batch call per event leaves
    cfg = g.SyntheticConfig(memory=2, num_nodes=12, edges_per_epoch=60)
    events = g.generate_epoch(cfg, g.Rng(4).substream("data"))
    model = g.init_model(g.Rng(4).substream("init"), 5, 1, "regression")
    stores = [g.NodeStateStore.zeros(cfg.num_nodes, model.m) for _ in range(2)]
    for store in stores:
        store.states[:] = np.arange(store.states.size).reshape(store.states.shape) / 97.0
    g.engine.advance_states(events, model, stores[0], g.BatchingConfig("sequential", size))
    for ev in events:
        g.run_batch(stores[1], g.Batch([ev], "sequential", ev.index), model)
    assert stores[0].states.tobytes() == stores[1].states.tobytes()
    assert stores[0].last_update_event.tobytes() == stores[1].last_update_event.tobytes()


def assert_windows_keep_the_gradient(monkeypatch, events, model, batching, kwargs):
    # a batch whose events form one level stages its rows in the same order
    # whatever window it is swept in; kwargs() gives fresh rng state per run
    batches = g.build_batches(events, batching)
    assert len(batches) > len(window_updates(batches)) >= 3  # windows of several batches
    windowed = epoch_gradient(events, model, "t_bptt", batching, **kwargs())
    monkeypatch.setattr(g.engine, "WINDOW_UPDATES", 1)  # each batch its own window
    per_batch = epoch_gradient(events, model, "t_bptt", batching, **kwargs())
    monkeypatch.undo()
    assert {k: v.tobytes() for k, v in windowed.items()} == {
        k: v.tobytes() for k, v in per_batch.items()}


@pytest.mark.parametrize("strategy,size", [("sequential", 1), ("t_batch", None),
                                           ("fixed_parallel", 9)])
def test_t_bptt_window_keeps_synth_gradient_bits(monkeypatch, strategy, size):
    cfg = g.SyntheticConfig(memory=2, num_nodes=40, edges_per_epoch=300)
    events = g.generate_epoch(cfg, g.Rng(8).substream("data"))
    model = g.init_model(g.Rng(8).substream("init"), 4, 1, "regression")
    assert_windows_keep_the_gradient(monkeypatch, events, model, g.BatchingConfig(strategy, size),
                                     lambda: {"num_nodes": cfg.num_nodes})


@pytest.mark.parametrize("kind", ["regular", "recurrent"])
@pytest.mark.parametrize("strategy,size", [("fixed_parallel", 16), ("t_batch", None)])
def test_t_bptt_window_keeps_link_gradient_bits(tmp_path, monkeypatch, strategy, size, kind):
    path = str(tmp_path / "stream.csv")
    write_synthetic_linkstream(path, num_events=300, num_users=15, num_items=6,
                               feat_dim=2, seed=3)
    dataset = load_jodie_csv(path)
    model = g.init_model(g.Rng(31), 4, dataset.feat_dim, "link_ranking")

    def kwargs():
        dropout_rng = g.Rng(7)
        return dict(task="link_ranking", rng=g.Rng(5), neg_universe=dataset.destinations,
                    state_dropout=g.StateDropout(0.3, kind, dropout_rng), mlp_dropout=0.2,
                    dropout_rng=dropout_rng, num_nodes=dataset.num_nodes)

    assert_windows_keep_the_gradient(monkeypatch, dataset.events, model,
                                     g.BatchingConfig(strategy, size), kwargs)


def test_train_epoch_rejects_unknown_mode():
    with pytest.raises(g.ConfigError):
        g.train_epoch([], g.init_model(g.Rng(0), 2, 1, "regression"),
                      AdamwState(), "sideways", g.BatchingConfig("sequential", None),
                      num_nodes=2)


def test_link_task_forward_and_backward_run():
    events = [
        g.Event(index=k, src=s, dst=d, time=float(k), features=np.array([0.1 * k]))
        for k, (s, d) in enumerate([(0, 2), (1, 3), (0, 3), (1, 2)])
    ]
    model = g.init_model(g.Rng(5), 3, 1, "link_ranking")
    opt = AdamwState(lr=1e-3, weight_decay=1e-4)
    universe = np.array([2, 3])
    stats = g.train_epoch(events, model, opt, "f_bptt",
                          g.BatchingConfig("fixed_parallel", 2),
                          rng=g.Rng(11), neg_universe=universe, num_nodes=4)
    assert stats["mean_loss"] > 0
    stats2 = g.train_epoch(events, model, opt, "t_bptt",
                           g.BatchingConfig("fixed_parallel", 2),
                           rng=g.Rng(11), neg_universe=universe, num_nodes=4)
    assert math.isfinite(stats2["mean_loss"])


def test_link_task_gradient_matches_finite_differences():
    # negatives fixed by seeding; FD re-runs the same stream deterministically.
    # States start slightly warmed: at exact zero the first batch's MLP inputs
    # sit on the ReLU kink, where finite differences measure a subgradient.
    events = [
        g.Event(index=k, src=s, dst=d, time=float(k), features=np.array([0.3, -0.2]))
        for k, (s, d) in enumerate([(0, 3), (1, 4), (2, 3), (0, 4)])
    ]
    model = g.init_model(g.Rng(6), 3, 2, "link_ranking")
    universe = np.array([3, 4])
    batching = g.BatchingConfig("fixed_parallel", 2)

    def warmed_store():
        store = g.NodeStateStore.zeros(5, 3)
        warm_rng = g.Rng(99)
        for n in range(5):
            store.states[n] = [0.1 * warm_rng.standard_normal() for _ in range(3)]
        return store

    gradient = epoch_gradient(events, model, "f_bptt", batching, store=warmed_store(),
                              reset_store=False, rng=g.Rng(13), neg_universe=universe)

    def loss():
        return g.forward_epoch(events, model, warmed_store(), batching, record=False,
                               rng=g.Rng(13), neg_universe=universe).total_loss

    err = g.finite_diff_check(loss, model.named_params(), gradient, eps=1e-5,
                              max_coords_per_tensor=25, rng=g.Rng(1))
    # float64 forward noise dominates near-zero coordinates; a wrong negative
    # path or routing bug shows up as O(1) error, not 1e-4
    assert err <= 1e-3


@pytest.mark.parametrize("kind", ["regular", "recurrent"])
@pytest.mark.parametrize("strategy,size", [("sequential", 3), ("t_batch", None),
                                           ("fixed_parallel", 3)])
def test_state_dropout_gradient_matches_finite_differences(kind, strategy, size):
    # Fresh, identically seeded rngs on every forward pass repeat the same
    # negatives and dropout masks, so the loss is a smooth function of the
    # parameters and the F-BPTT gradient must match its finite differences. The
    # warm-up states are larger than in the test above: at 0.1 some ReLU
    # inputs sit within eps of the kink and some gradients near 1e-7, where
    # central differences measure float64 noise instead of the gradient.
    events = [
        g.Event(index=k, src=s, dst=d, time=float(k), features=np.array([0.3, -0.2]))
        for k, (s, d) in enumerate([(0, 3), (1, 4), (2, 3), (0, 4), (1, 3), (2, 4)])
    ]
    model = g.init_model(g.Rng(10), 3, 2, "link_ranking")
    universe = np.array([3, 4])
    batching = g.BatchingConfig(strategy, size)

    def inputs():
        store = g.NodeStateStore.zeros(5, 3)
        warm_rng = g.Rng(99)
        for n in range(5):
            store.states[n] = [0.5 * warm_rng.standard_normal() for _ in range(3)]
        dropout_rng = g.Rng(41)
        return dict(store=store, rng=g.Rng(13), neg_universe=universe,
                    state_dropout=g.StateDropout(0.3, kind, dropout_rng),
                    mlp_dropout=0.2, dropout_rng=dropout_rng)

    gradient = epoch_gradient(events, model, "f_bptt", batching, reset_store=False, **inputs())

    def loss():
        kw = inputs()
        return g.forward_epoch(events, model, kw.pop("store"), batching, record=False,
                               training=True, **kw).total_loss

    err = g.finite_diff_check(loss, model.named_params(), gradient, eps=1e-5,
                              max_coords_per_tensor=25, rng=g.Rng(1))
    assert err <= 1e-3


def test_grad_accumulator_zero_and_norm():
    model = g.init_model(g.Rng(0), 2, 1, "regression")
    acc = g.GradientAccumulator(model.named_params())
    assert acc.grad_norm() == 0.0
    acc.buffers["mlp.b2"] += 3.0
    assert abs(acc.grad_norm() - 3.0) < 1e-12
