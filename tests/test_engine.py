import math

import numpy as np
import pytest

import grnnlab as g
from grnnlab.adamw import AdamwState
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


@pytest.mark.parametrize("strategy,size", [("sequential", 1), ("sequential", 3),
                                           ("t_batch", None), ("fixed_parallel", 2),
                                           ("fixed_parallel", 3)])
def test_truncated_gradient_matches_one_hop_oracle(strategy, size):
    # the T-BPTT gradient training applies equals the gradient of the one-hop
    # truncated reference loss; the F-BPTT gradient must fail the same check,
    # since every batching here has reads two or more batches downstream
    batching = g.BatchingConfig(strategy, size)
    err, trunc = g.epoch_gradient_check(g.Rng(3), 4, 2, 6, 10, batching, "t_bptt")
    assert err <= 1e-5
    err_full, full = g.epoch_gradient_check(g.Rng(3), 4, 2, 6, 10, batching, "f_bptt",
                                            oracle="t_bptt")
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


def test_memory_telemetry_full_vs_streaming():
    cfg = g.SyntheticConfig(memory=1, num_nodes=6, edges_per_epoch=30)
    events = g.generate_epoch(cfg, g.Rng(2).substream("data"))
    model = g.init_model(g.Rng(2).substream("init"), 3, 1, "regression")
    opt = AdamwState(lr=1e-3, weight_decay=0.0)
    stats_full = g.train_epoch(events, model.copy(), opt, "f_bptt",
                               g.BatchingConfig("sequential", None), num_nodes=6)
    assert stats_full["peak_live_records"] == len(events)  # tape grows linearly
    opt2 = AdamwState(lr=1e-3, weight_decay=0.0)
    stats_stream = g.train_epoch(events, model.copy(), opt2, "t_bptt",
                                 g.BatchingConfig("fixed_parallel", 5), num_nodes=6)
    # streaming keeps the current batch plus at most one producer per node
    assert stats_stream["peak_live_records"] <= 5 + 6
    assert stats_stream["peak_live_records"] < len(events)


@pytest.mark.parametrize("strategy,size", [("sequential", 1), ("sequential", 7),
                                           ("t_batch", None), ("fixed_parallel", 5)])
def test_streaming_peak_live_records_matches_rescan(strategy, size):
    cfg = g.SyntheticConfig(memory=2, num_nodes=9, edges_per_epoch=60)
    events = g.generate_epoch(cfg, g.Rng(4).substream("data"))
    model = g.init_model(g.Rng(4).substream("init"), 3, 1, "regression")
    batching = g.BatchingConfig(strategy, size)
    stats = g.train_epoch(events, model.copy(), AdamwState(), "t_bptt", batching, num_nodes=9)
    # reference: after each batch, the batch's records plus every distinct
    # record that still produces some node's current state
    store, producers, peak = g.NodeStateStore.zeros(9, 3), {}, 0
    for batch in g.build_batches(events, batching):
        records = g.run_batch(store, producers, batch, model, record=True)
        live = {id(slot[0]) for slot in producers.values()}
        peak = max(peak, len(records) + len(live))
    assert stats["peak_live_records"] == peak


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
