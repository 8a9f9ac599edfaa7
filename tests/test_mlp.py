import os
import subprocess
import sys

import numpy as np
import pytest

import grnnlab as g
from grnnlab.mlp import MlpCache, MlpParameters, mlp_score_batch
from grnnlab.oracles import mlp_forward_reference


def test_all_zero_parameters_give_zero_logit():
    params = MlpParameters(w1=np.zeros((3, 5)), b1=np.zeros(3), w2=np.zeros(3), b2=np.zeros(1))
    for seed in range(5):
        x = np.array([g.Rng(seed).standard_normal() for _ in range(5)])
        logit, _ = g.mlp_forward(params, x)
        assert logit == 0.0


def test_forward_matches_reference():
    rng = g.Rng(2)
    params = g.init_mlp_parameters(rng, 9, 4)
    x = np.array([rng.standard_normal() for _ in range(9)])
    logit, _ = g.mlp_forward(params, x)
    ref = mlp_forward_reference(
        dict(zip(("w1", "b1", "w2", "b2"), (params.w1, params.b1, params.w2, params.b2))), x
    )
    assert abs(logit - float(ref)) <= 1e-12


def test_backward_matches_finite_differences():
    rng = g.Rng(4)
    params = g.init_mlp_parameters(rng, 9, 4)  # random m=4 instance
    x = np.array([rng.standard_normal() for _ in range(9)])
    _, cache = g.mlp_forward(params, x[None])
    acc, _ = g.mlp_backward(params, cache, np.ones(1))
    ref = {k: np.asarray(v, dtype=np.longdouble) for k, v in params.named().items()}

    def f():
        return mlp_forward_reference(
            {k: ref["mlp." + k] for k in ("w1", "b1", "w2", "b2")}, x, dtype=np.longdouble
        )

    assert g.finite_diff_check(f, ref, acc.buffers, eps=1e-5) <= 1e-6


def test_zero_upstream_gradient_gives_zero_gradients():
    rng = g.Rng(6)
    params = g.init_mlp_parameters(rng, 4, 3)
    x = np.array([rng.standard_normal() for _ in range(4)])
    _, cache = g.mlp_forward(params, x[None])
    acc, gx = g.mlp_backward(params, cache, np.zeros(1))
    assert all(np.all(v == 0) for v in acc.buffers.values())
    assert np.all(gx == 0)


def test_grad_input_matches_finite_differences():
    rng = g.Rng(8)
    params = g.init_mlp_parameters(rng, 5, 3)
    x = np.array([rng.standard_normal() for _ in range(5)])
    _, cache = g.mlp_forward(params, x[None])
    _, (gx,) = g.mlp_backward(params, cache, np.ones(1))
    eps = 1e-6
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        num = (g.mlp_forward(params, xp)[0] - g.mlp_forward(params, xm)[0]) / (2 * eps)
        assert abs(num - gx[i]) <= 1e-6 * max(1.0, abs(gx[i]))


def test_backward_takes_rows_only():
    # one head is one row: a vector (or 3-D) cache or gradient is refused
    params = g.init_mlp_parameters(g.Rng(0), 4, 3)
    _, vector = g.mlp_forward(params, np.zeros(4))
    _, row = g.mlp_forward(params, np.zeros((1, 4)))
    cube = MlpCache(np.zeros((1, 1, 4)), np.zeros((1, 1, 3)), None, 1.0)
    for cache, grad in ((vector, 1.0), (vector, np.ones(1)), (row, 1.0), (row, np.ones(2)),
                        (row, np.ones((1, 1))), (cube, np.ones(1))):
        with pytest.raises(g.StructuralError, match="mlp_backward"):
            g.mlp_backward(params, cache, grad)


def test_score_batch_matches_single_forward():
    rng = g.Rng(10)
    params = g.init_mlp_parameters(rng, 6, 4)
    params.b1[:] = [rng.standard_normal() for _ in range(4)]
    params.b2[:] = rng.standard_normal()
    xs = np.array([[rng.standard_normal() for _ in range(6)] for _ in range(11)])
    for k in range(7):  # every split of the input, both empty halves included
        src, cand = xs[:4, :k], xs[4:, k:]
        batch = mlp_score_batch(params, src, cand)
        assert batch.shape == (4, 7)
        pairs = [[g.mlp_forward(params, np.concatenate((s, c)))[0] for c in cand] for s in src]
        assert np.allclose(batch, pairs, atol=1e-12), k


def test_hidden_dropout_scales_and_masks():
    rng = g.Rng(12)
    params = g.init_mlp_parameters(rng, 4, 50)
    x = np.ones(4)
    mask = g.Rng(3).keep_mask(50, 0.4)
    logit, cache = g.mlp_forward(params, x, mask, 1.0 / 0.6)
    assert cache.drop_mask is mask and cache.drop_scale == 1.0 / 0.6
    dropped = (~cache.drop_mask).mean()
    assert 0.2 < dropped < 0.6
    # the hidden layer is the unmasked one, zeroed where dropped and scaled
    _, plain = g.mlp_forward(params, x)
    assert plain.drop_mask is None
    assert np.array_equal(cache.a1, np.where(mask, plain.a1 * (1.0 / 0.6), 0.0))
    assert logit == float(params.w2 @ cache.a1 + params.b2[0])


def test_shape_validation():
    params = g.init_mlp_parameters(g.Rng(0), 4, 3)
    for bad in (np.zeros(5), np.zeros(3), np.zeros((2, 5)), np.zeros((1, 3)), np.zeros((2, 1, 4)),
                np.zeros(())):
        with pytest.raises(g.StructuralError):
            g.mlp_forward(params, bad)
    for src, cand in (
        (np.zeros((2, 5)), np.zeros((3, 0))),  # the full-width rows rejected before
        (np.zeros((2, 3)), np.zeros((3, 2))),  # widths sum to 5, not in_dim=4
        (np.zeros((2, 1)), np.zeros((3, 2))),  # widths sum to 3
        (np.zeros(2), np.zeros((3, 2))),  # 1-D source
        (np.zeros((2, 2)), np.zeros(2)),  # 1-D candidates
        (np.zeros(2), np.zeros(2)),
        (np.zeros((1, 2, 2)), np.zeros((3, 2))),  # 3-D source
        (np.zeros((2, 2)), np.zeros(())),
    ):
        with pytest.raises(g.StructuralError):
            mlp_score_batch(params, src, cand)


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.9])
def training_forward(rate, rng, hidden=64):
    """A recorded training forward_epoch of 3 regression events with head
    dropout rate (no state dropout) drawing from rng, and m = hidden;
    returns its tape."""
    cfg = g.SyntheticConfig(memory=1, num_nodes=4, edges_per_epoch=3)
    events = g.generate_epoch(cfg, g.Rng(5).substream("data"))
    model = g.init_model(g.Rng(4), hidden, 1, "regression")  # the head's hidden is m
    store = g.NodeStateStore.zeros(cfg.num_nodes, model.m)
    return g.forward_epoch(events, model, store, g.BatchingConfig("sequential", None),
                           mlp_dropout=rate, dropout_rng=rng, training=True).tape


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.9])
def test_training_mask_equals_scalar_bernoulli_draws(rate):
    # a training forward draws each head's hidden mask, head after head
    rng = g.Rng(17)
    tape = training_forward(rate, rng)
    ref = g.Rng(17)
    if rate == 0.0:
        assert tape.head_mask is None  # no mask, no draws
    else:
        expected = [[[not ref.bernoulli(rate) for _ in range(64)]] for _ in range(3)]
        assert tape.head_mask.tolist() == expected
        assert tape.drop_scale == 1.0 / (1.0 - rate)
    assert rng.next_u64() == ref.next_u64()


def test_training_mask_rejects_rate_above_one():
    with pytest.raises(g.ParameterError):
        training_forward(1.5, g.Rng(0), hidden=8)


def stacked_heads(hidden, in_dim, n, seed):
    """Random parameters (biases included), n inputs and n logit gradients."""
    params = g.init_mlp_parameters(g.Rng(seed), in_dim, hidden)
    rng = np.random.default_rng(seed)
    params.b1[:] = rng.standard_normal(hidden)
    params.b2[:] = rng.standard_normal(1)
    return params, rng.standard_normal((n, in_dim)), rng.standard_normal(n)


def head_mask(rng, shape, rate):
    """A hidden keep mask of shape drawn from rng, and its scale; rate 0
    draws none."""
    if rate == 0.0:
        return None, 1.0
    return rng.keep_mask(np.prod(shape), rate).reshape(shape), 1.0 / (1.0 - rate)


def stacked_bytes(params, x, grad, rate):
    """One stacked mask draw, forward and backward: logits, masks, grad_x,
    the accumulated gradients and the rng's next draw, as bytes."""
    rng = g.Rng(11)
    logits, cache = g.mlp_forward(params, x, *head_mask(rng, (len(x), params.hidden), rate))
    acc, gx = g.mlp_backward(params, cache, grad)
    mask = b"" if cache.drop_mask is None else cache.drop_mask.tobytes()
    return [logits.tobytes(), mask, gx.tobytes(),
            *(b.tobytes() for b in acc.buffers.values()), str(rng.next_u64()).encode()]


def row_bytes(params, x, grad, rate):
    """The same through one-head calls, in row order: a vector mask draw and
    forward, and a backward of its cache as one row."""
    rng, acc, logits, masks, gxs = g.Rng(11), None, [], [], []
    for xi, gi in zip(x, grad):
        logit, cache = g.mlp_forward(params, xi, *head_mask(rng, (params.hidden,), rate))
        mask = None if cache.drop_mask is None else cache.drop_mask[None]
        row = MlpCache(cache.x[None], cache.a1[None], mask, cache.drop_scale)
        acc, (gx,) = g.mlp_backward(params, row, gi[None], acc)
        logits.append(logit)
        masks.append(cache.drop_mask)
        gxs.append(gx)
    mask = b"" if masks[0] is None else np.array(masks).tobytes()
    return [np.array(logits).tobytes(), mask, np.array(gxs).tobytes(),
            *(b.tobytes() for b in acc.buffers.values()), str(rng.next_u64()).encode()]


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("hidden", [1, 4, 5, 32, 64, 128])
def test_stacked_heads_give_the_bits_of_one_row_calls(hidden, rate):
    for extra in (0, 1, 2, 65, 172):
        for n in (1, 2, 65, 400):
            params, x, grad = stacked_heads(hidden, 2 * hidden + extra, n, seed=hidden + extra + n)
            assert stacked_bytes(params, x, grad, rate) == row_bytes(params, x, grad, rate), (
                extra, n)


HEADS_THREAD_PROBE = """
import hashlib
import sys
sys.path.insert(0, sys.argv[1])
from test_mlp import row_bytes, stacked_bytes, stacked_heads
for run in (stacked_bytes, row_bytes):
    print(hashlib.sha256(b"".join(run(*stacked_heads(128, 428, 400, seed=3), 0.3))).hexdigest())
"""


def test_stacked_heads_do_not_depend_on_blas_threads():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(g.__file__))
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", HEADS_THREAD_PROBE, tests], capture_output=True,
            text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout.split()
        for threads in ("1", "2")
    }
    stacked, rows = digests["1"]
    assert stacked == rows and digests["2"] == digests["1"]


def pair_scores(hidden, k, n, num_cand, seed):
    """mlp_score_batch over n random sources and num_cand candidates (biases
    random): once stacked, once as n one-source calls and once as one call
    per pair, as bytes."""
    params = g.init_mlp_parameters(g.Rng(seed), 2 * k, hidden)
    rng = np.random.default_rng(seed)
    params.b1[:] = rng.standard_normal(hidden)
    params.b2[:] = rng.standard_normal(1)
    src, cand = rng.standard_normal((n, k)), rng.standard_normal((num_cand, k))
    stacked = mlp_score_batch(params, src, cand)
    rows = np.concatenate([mlp_score_batch(params, s[None], cand) for s in src])
    pairs = np.array([[mlp_score_batch(params, s[None], c[None])[0, 0] for c in cand]
                      for s in src])
    return stacked.tobytes(), rows.tobytes(), pairs.tobytes()


PAIRS_THREAD_PROBE = """
import hashlib
import sys
sys.path.insert(0, sys.argv[1])
from test_mlp import pair_scores
for scores in pair_scores(128, 128, 6, 1000, seed=5):
    print(hashlib.sha256(scores).hexdigest())
"""


def test_pair_scores_do_not_depend_on_blas_threads():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(g.__file__))
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", PAIRS_THREAD_PROBE, tests], capture_output=True,
            text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout.split()
        for threads in ("1", "2")
    }
    stacked, rows, pairs = digests["1"]
    assert stacked == rows == pairs and digests["2"] == digests["1"]
