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
    out, _ = regular_dropout(v, 0.0, g.Rng(0))
    assert np.array_equal(out, v)
    out, _ = recurrent_mix(v, prev, 0.0, g.Rng(0))
    assert np.array_equal(out, v)


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
    out, _ = regular_dropout(v, 0.3, g.Rng(7))
    zero_fraction = float((out == 0).mean())
    assert abs(zero_fraction - 0.3) < 0.01
    # inverted dropout preserves the expectation over the whole vector
    assert abs(out.mean() - v.mean()) < 0.02
    survivors = out != 0
    assert np.allclose(out[survivors], v[survivors] / 0.7)


def test_recurrent_extremes_are_exact():
    v = vec(30, seed=3)
    prev = vec(30, seed=4)
    out, _ = recurrent_mix(v, prev, 0.0, g.Rng(0))
    assert np.array_equal(out, v)
    out, _ = recurrent_mix(v, prev, 1.0, g.Rng(0))
    assert np.array_equal(out, prev)


def test_recurrent_mixes_without_rescaling():
    n = 50_000
    v = np.ones(n)
    prev = np.zeros(n)
    out, _ = recurrent_mix(v, prev, 0.25, g.Rng(9))
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
    a, _ = regular_dropout(v, 0.4, g.Rng(33))
    b, _ = regular_dropout(v, 0.4, g.Rng(33))
    assert np.array_equal(a, b)


def scalar_keep_mask(seed, n, rate):
    rng = g.Rng(seed)
    return np.array([not rng.bernoulli(rate) for _ in range(n)], dtype=bool)


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 64, 5000])
def test_masks_equal_scalar_bernoulli_draws(rate, n):
    v = vec(n, seed=6)
    prev = vec(n, seed=7)
    expected = scalar_keep_mask(21, n, rate)
    with np.errstate(divide="ignore", invalid="ignore"):  # 1/(1-rate) at rate 1
        _, mask = regular_dropout(v, rate, g.Rng(21))
    assert np.array_equal(mask, expected)
    _, keep = recurrent_mix(v, prev, rate, g.Rng(21))
    assert np.array_equal(keep, expected)


@pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
def test_bad_mask_rate_raises(rate):
    with pytest.raises(g.ParameterError):
        regular_dropout(vec(8), rate, g.Rng(0))
    with pytest.raises(g.ParameterError):
        recurrent_mix(vec(8), vec(8, seed=1), rate, g.Rng(0))
