import numpy as np
import pytest

import grnnlab as g
from grnnlab.mlp import MlpParameters, mlp_score_batch
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
    _, cache = g.mlp_forward(params, x)
    acc, _ = g.mlp_backward(params, cache, 1.0)
    ref = {k: np.asarray(v, dtype=np.longdouble) for k, v in params.named().items()}

    def f():
        return mlp_forward_reference(
            {k: ref["mlp." + k] for k in ("w1", "b1", "w2", "b2")}, x, dtype=np.longdouble
        )

    assert g.finite_diff_check(f, ref, acc, eps=1e-5) <= 1e-6


def test_zero_upstream_gradient_gives_zero_gradients():
    rng = g.Rng(6)
    params = g.init_mlp_parameters(rng, 4, 3)
    x = np.array([rng.standard_normal() for _ in range(4)])
    _, cache = g.mlp_forward(params, x)
    acc, gx = g.mlp_backward(params, cache, 0.0)
    assert all(np.all(v == 0) for v in acc.values())
    assert np.all(gx == 0)


def test_grad_input_matches_finite_differences():
    rng = g.Rng(8)
    params = g.init_mlp_parameters(rng, 5, 3)
    x = np.array([rng.standard_normal() for _ in range(5)])
    _, cache = g.mlp_forward(params, x)
    _, gx = g.mlp_backward(params, cache, 1.0)
    eps = 1e-6
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        num = (g.mlp_forward(params, xp)[0] - g.mlp_forward(params, xm)[0]) / (2 * eps)
        assert abs(num - gx[i]) <= 1e-6 * max(1.0, abs(gx[i]))


def test_score_batch_matches_single_forward():
    rng = g.Rng(10)
    params = g.init_mlp_parameters(rng, 6, 4)
    xs = np.array([[rng.standard_normal() for _ in range(6)] for _ in range(11)])
    batch = mlp_score_batch(params, xs)
    singles = [g.mlp_forward(params, row)[0] for row in xs]
    assert np.allclose(batch, singles, atol=1e-12)


def test_hidden_dropout_scales_and_masks():
    rng = g.Rng(12)
    params = g.init_mlp_parameters(rng, 4, 50)
    x = np.ones(4)
    logit, cache = g.mlp_forward(params, x, dropout_rate=0.4, rng=g.Rng(3), training=True)
    assert cache.drop_mask is not None
    dropped = (~cache.drop_mask).mean()
    assert 0.2 < dropped < 0.6
    # inference ignores dropout entirely
    logit_eval, cache_eval = g.mlp_forward(params, x, dropout_rate=0.4, rng=g.Rng(3), training=False)
    assert cache_eval.drop_mask is None
    assert logit_eval == g.mlp_forward(params, x)[0]


def test_shape_validation():
    params = g.init_mlp_parameters(g.Rng(0), 4, 3)
    with pytest.raises(g.StructuralError):
        g.mlp_forward(params, np.zeros(5))
    with pytest.raises(g.StructuralError):
        mlp_score_batch(params, np.zeros((2, 5)))


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.9])
def test_training_mask_equals_scalar_bernoulli_draws(rate):
    params = g.init_mlp_parameters(g.Rng(4), 9, 64)
    x = np.array([g.Rng(5).standard_normal() for _ in range(9)])
    rng = g.Rng(17)
    _, cache = g.mlp_forward(params, x, dropout_rate=rate, rng=rng, training=True)
    ref = g.Rng(17)
    if rate == 0.0:
        assert cache.drop_mask is None  # no mask, no draws
    else:
        expected = [not ref.bernoulli(rate) for _ in range(64)]
        assert cache.drop_mask.tolist() == expected
    assert rng.next_u64() == ref.next_u64()


def test_training_mask_rejects_rate_above_one():
    params = g.init_mlp_parameters(g.Rng(4), 9, 8)
    with pytest.raises(g.ParameterError):
        g.mlp_forward(params, np.zeros(9), dropout_rate=1.5, rng=g.Rng(0), training=True)
