import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnnlab as g
from grnnlab.gru import GruParameters, uniform_matrix
from grnnlab.oracles import gru_forward_reference


def zero_params(m, d_in):
    shape = (m, m + d_in)
    return GruParameters(
        wz=np.zeros(shape), wr=np.zeros(shape), wn=np.zeros(shape),
        bz=np.zeros(m), br=np.zeros(m), bn=np.zeros(m),
    )


def random_vec(rng, n):
    return np.array([rng.standard_normal() for _ in range(n)])


def test_zero_weights_halve_previous_state():
    # z = sigmoid(0) = 0.5 and candidate = tanh(0) = 0, so h_new = 0.5 h_prev
    params = zero_params(3, 2)
    h = np.array([1.0, -2.0, 0.5])
    x = np.array([3.0, -1.0])
    h_new, _ = g.gru_forward(params, h, x)
    assert np.allclose(h_new, 0.5 * h, atol=0, rtol=0)


def test_forward_matches_scalar_reference():
    rng = g.Rng(17)
    params = g.init_gru_parameters(rng, 2, 3)
    h = random_vec(rng, 2)
    x = random_vec(rng, 3)
    h_new, _ = g.gru_forward(params, h, x)
    ref = gru_forward_reference(params.named(""), h, x)
    assert np.abs(h_new - ref).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_output_is_convex_combination_per_coordinate(seed):
    rng = g.Rng(seed)
    m = 2 + rng.randrange(5)
    d_in = 1 + rng.randrange(5)
    params = g.init_gru_parameters(rng, m, d_in)
    h = random_vec(rng, m) * 3.0
    x = random_vec(rng, d_in) * 3.0
    h_new, _ = g.gru_forward(params, h, x)
    assert np.all(np.isfinite(h_new))
    assert np.all(np.abs(h_new) <= np.maximum(np.abs(h), 1.0) + 1e-12)


def test_backward_zero_upstream_gives_zero_gradients():
    rng = g.Rng(3)
    params = g.init_gru_parameters(rng, 3, 4)
    _, cache = g.gru_forward(params, random_vec(rng, 3), random_vec(rng, 4))
    acc, gh, gx = g.gru_backward(params, cache, np.zeros(3))
    assert all(np.all(v == 0) for v in acc.values())
    assert np.all(gh == 0) and np.all(gx == 0)


def test_backward_zero_weights_basis_vector():
    params = zero_params(2, 2)
    h = np.array([0.7, -0.4])
    _, cache = g.gru_forward(params, h, np.array([1.0, 2.0]))
    _, gh, _ = g.gru_backward(params, cache, np.array([1.0, 0.0]))
    # h_new = 0.5 h_prev + (weight terms that vanish at zero weights)
    assert np.allclose(gh, [0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_backward_matches_finite_differences(m):
    # spec invariant: 100 random seeds per size, relative error <= 1e-5
    d_in = m + 1
    for seed in range(100):
        rng = g.Rng(seed * 31 + m)
        params = g.init_gru_parameters(rng, m, d_in)
        h = random_vec(rng, m)
        x = random_vec(rng, d_in)
        w = random_vec(rng, m)
        _, cache = g.gru_forward(params, h, x)
        acc, _, _ = g.gru_backward(params, cache, w)
        ref = {k: np.asarray(v, dtype=np.longdouble) for k, v in params.named().items()}

        def f():
            out = gru_forward_reference(
                {k: ref["gru." + k] for k in ("wz", "wr", "wn", "bz", "br", "bn")},
                h, x, dtype=np.longdouble,
            )
            return out @ w  # stays longdouble; rounding here would drown tiny coords

        err = g.finite_diff_check(
            f, ref, acc, eps=1e-5, max_coords_per_tensor=8, rng=g.Rng(seed)
        )
        assert err <= 1e-5, (m, seed, err)


def test_backward_gradients_accumulate_across_calls():
    rng = g.Rng(5)
    params = g.init_gru_parameters(rng, 2, 2)
    _, c1 = g.gru_forward(params, random_vec(rng, 2), random_vec(rng, 2))
    _, c2 = g.gru_forward(params, random_vec(rng, 2), random_vec(rng, 2))
    gA = np.array([1.0, -1.0])
    gB = np.array([0.3, 0.7])
    acc, _, _ = g.gru_backward(params, c1, gA)
    acc, _, _ = g.gru_backward(params, c2, gB, acc)
    solo1, _, _ = g.gru_backward(params, c1, gA)
    solo2, _, _ = g.gru_backward(params, c2, gB)
    for k in acc:
        assert np.allclose(acc[k], solo1[k] + solo2[k], atol=1e-15)


def test_shape_validation():
    params = g.init_gru_parameters(g.Rng(0), 3, 2)
    with pytest.raises(g.StructuralError):
        g.gru_forward(params, np.zeros(4), np.zeros(2))
    _, cache = g.gru_forward(params, np.zeros(3), np.zeros(2))
    with pytest.raises(g.StructuralError):
        g.gru_backward(params, cache, np.zeros(5))
    other = g.init_gru_parameters(g.Rng(1), 4, 2)
    with pytest.raises(g.StructuralError):
        g.gru_backward(other, cache, np.zeros(4))


def test_init_scale_and_determinism():
    params = g.init_gru_parameters(g.Rng(9), 4, 3)
    scale = 1.0 / np.sqrt(7)
    for w in (params.wz, params.wr, params.wn):
        assert np.abs(w).max() <= scale
    assert np.all(params.bz == 0) and np.all(params.br == 0) and np.all(params.bn == 0)
    again = g.init_gru_parameters(g.Rng(9), 4, 3)
    assert np.array_equal(params.wz, again.wz)


def scalar_uniform_matrix(rng, rows, cols, scale):
    data = np.empty(rows * cols, dtype=np.float64)
    for i in range(data.size):
        data[i] = rng.uniform(-scale, scale)
    return data.reshape(rows, cols)


@pytest.mark.parametrize("m", [4, 32, 128])
def test_uniform_matrix_equals_scalar_uniform_loop(m):
    scale = 1.0 / np.sqrt(2 * m + 1)
    a, b = g.Rng(m), g.Rng(m)
    for rows, cols in ((m, 2 * m + 1), (1, m), (m, m)):
        got = uniform_matrix(a, rows, cols, scale)
        want = scalar_uniform_matrix(b, rows, cols, scale)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert a.next_u64() == b.next_u64()
