import numpy as np
import pytest

import grnnlab as g
from grnnlab.dropout import recurrent_mix, regular_dropout


def vec(n, seed=0):
    rng = g.Rng(seed)
    return np.array([rng.standard_normal() for _ in range(n)])


def test_rate_zero_is_identity_for_both_kinds():
    v = vec(20)
    prev = vec(20, seed=1)
    keep = g.Rng(0).keep_mask(20, 0.0)
    assert np.array_equal(regular_dropout(v, keep, 0.0), v)
    assert np.array_equal(recurrent_mix(v, prev, keep), v)


def test_inference_mode_is_identity():
    # outside training, a forward pass leaves state dropout off and draws no mask
    cfg = g.SyntheticConfig(memory=1, num_nodes=5, edges_per_epoch=12)
    events = g.generate_epoch(cfg, g.Rng(0).substream("data"))
    model = g.init_model(g.Rng(0), 3, 1, "regression")
    batching = g.BatchingConfig("sequential", None)
    plain = g.NodeStateStore.zeros(5, 3)
    g.forward_epoch(events, model, plain, batching, record=False)
    rng = g.Rng(0)
    dropped = g.NodeStateStore.zeros(5, 3)
    g.forward_epoch(events, model, dropped, batching, record=False, training=False,
                    state_dropout=g.StateDropout(0.5, "regular", rng))
    assert np.array_equal(dropped.states, plain.states)
    assert rng.next_u64() == g.Rng(0).next_u64()


def test_regular_mask_statistics():
    n = 100_000
    v = vec(n, seed=2)
    out = regular_dropout(v, g.Rng(7).keep_mask(n, 0.3), 0.3)
    zero_fraction = float((out == 0).mean())
    assert abs(zero_fraction - 0.3) < 0.01
    # inverted dropout preserves the expectation over the whole vector
    assert abs(out.mean() - v.mean()) < 0.02
    survivors = out != 0
    assert np.allclose(out[survivors], v[survivors] / 0.7)


def test_recurrent_extremes_are_exact():
    v = vec(30, seed=3)
    prev = vec(30, seed=4)
    assert np.array_equal(recurrent_mix(v, prev, g.Rng(0).keep_mask(30, 0.0)), v)
    assert np.array_equal(recurrent_mix(v, prev, g.Rng(0).keep_mask(30, 1.0)), prev)


def test_recurrent_mixes_without_rescaling():
    n = 50_000
    v = np.ones(n)
    prev = np.zeros(n)
    out = recurrent_mix(v, prev, g.Rng(9).keep_mask(n, 0.25))
    assert set(np.unique(out)) <= {0.0, 1.0}  # values taken verbatim, no scaling
    kept_fraction = out.mean()
    assert abs(kept_fraction - 0.75) < 0.01


def test_parameter_errors():
    for rate, kind in ((1.0, "regular"), (-0.1, "regular"), (1.1, "recurrent"),
                       (0.5, "banana")):
        with pytest.raises(g.ParameterError):
            g.StateDropout(rate, kind, g.Rng(0))


def test_deterministic_given_rng():
    v = vec(100, seed=5)
    a = regular_dropout(v, g.Rng(33).keep_mask(100, 0.4), 0.4)
    b = regular_dropout(v, g.Rng(33).keep_mask(100, 0.4), 0.4)
    assert np.array_equal(a, b)


def scalar_keep_mask(seed, n, rate):
    rng = g.Rng(seed)
    return np.array([not rng.bernoulli(rate) for _ in range(n)], dtype=bool)


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 64, 5000])
def test_masks_equal_scalar_bernoulli_draws(rate, n):
    # a drawn mask is scalar Bernoulli draws, and each kernel applies it
    # elementwise: a kept element is taken (and, regular, rescaled)
    v = vec(n, seed=6)
    prev = vec(n, seed=7)
    expected = scalar_keep_mask(21, n, rate)
    keep = g.Rng(21).keep_mask(n, rate)
    assert np.array_equal(keep, expected)
    if rate < 1.0:  # regular dropout rejects rate 1 (see below)
        want = [x / (1.0 - rate) if k else 0.0 for x, k in zip(v, expected)]
        assert regular_dropout(v, keep, rate).tolist() == want
    want = [x if k else p for x, p, k in zip(v, prev, expected)]
    assert recurrent_mix(v, prev, keep).tolist() == want


@pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
def test_bad_mask_rate_raises(rate):
    # a mask is drawn only at a rate in [0, 1], and a state dropout of
    # either kind is configured only at one in [0, 1)
    with pytest.raises(g.ParameterError):
        g.Rng(0).keep_mask(8, rate)
    for kind in ("regular", "recurrent"):
        with pytest.raises(g.ParameterError):
            g.StateDropout(rate, kind, g.Rng(0))


@pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.0])
def test_dropout_rates_outside_unit_interval_raise(rate):
    # one [0, 1) check guards every dropout that rescales or can be
    # configured: the state dropout config, and a training forward's head
    # dropout, before any draw
    for kind in ("regular", "recurrent"):
        with pytest.raises(g.ParameterError, match="out of"):
            g.StateDropout(rate, kind, g.Rng(0))
    cfg = g.SyntheticConfig(memory=1, num_nodes=5, edges_per_epoch=4)
    events = g.generate_epoch(cfg, g.Rng(0).substream("data"))
    model = g.init_model(g.Rng(0), 3, 1, "regression")
    store = g.NodeStateStore.zeros(5, 3)
    rng = g.Rng(1)
    with pytest.raises(g.ParameterError, match="out of"):
        g.forward_epoch(events, model, store, g.BatchingConfig("sequential", None),
                        mlp_dropout=rate, dropout_rng=rng, training=True)
    assert rng.next_u64() == g.Rng(1).next_u64()
    assert not store.states.any()


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("k,m", [(1, 1), (3, 5), (65, 64)])
def test_stacked_rows_equal_one_row_calls(k, m, rate):
    # a batch draws its state-dropout masks in one (k, m) draw and a level
    # applies them in one stacked call: the bits of k one-row draws and calls
    rows, prev = vec(k * m, seed=8).reshape(k, m), vec(k * m, seed=9).reshape(k, m)
    stacked_rng, row_rng = g.Rng(11), g.Rng(11)
    keep = stacked_rng.keep_mask(k * m, rate).reshape(k, m)
    row_keep = [row_rng.keep_mask(m, rate) for _ in range(k)]
    assert keep.tobytes() == np.stack(row_keep).tobytes()
    assert stacked_rng.next_u64() == row_rng.next_u64()
    drops = {"regular": lambda x, p, kp: regular_dropout(x, kp, rate),
             "recurrent": recurrent_mix}
    for kind, drop in drops.items():
        out = drop(rows, prev, keep)
        singles = [drop(x, p, kp) for x, p, kp in zip(rows, prev, row_keep)]
        assert out.shape == (k, m)
        assert out.tobytes() == np.stack(singles).tobytes(), kind
