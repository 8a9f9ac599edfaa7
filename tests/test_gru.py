import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnnlab as g
from grnnlab.gru import GruCache, GruParameters, stable_sigmoid, uniform_matrix
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
    _, cache = g.gru_forward(params, random_vec(rng, 3)[None], random_vec(rng, 4)[None])
    acc, gh, gx = g.gru_backward(params, cache, np.zeros((1, 3)))
    assert all(np.all(v == 0) for v in acc.buffers.values())
    assert np.all(gh == 0) and np.all(gx == 0)


def test_backward_zero_weights_basis_vector():
    params = zero_params(2, 2)
    h = np.array([[0.7, -0.4]])
    _, cache = g.gru_forward(params, h, np.array([[1.0, 2.0]]))
    _, gh, _ = g.gru_backward(params, cache, np.array([[1.0, 0.0]]))
    # h_new = 0.5 h_prev + (weight terms that vanish at zero weights)
    assert np.allclose(gh, [[0.5, 0.0]], atol=1e-15)


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
        _, cache = g.gru_forward(params, h[None], x[None])
        acc, _, _ = g.gru_backward(params, cache, w[None])
        ref = {k: np.asarray(v, dtype=np.longdouble) for k, v in params.named().items()}

        def f():
            out = gru_forward_reference(
                {k: ref["gru." + k] for k in ("wz", "wr", "wn", "bz", "br", "bn")},
                h, x, dtype=np.longdouble,
            )
            return out @ w  # stays longdouble; rounding here would drown tiny coords

        err = g.finite_diff_check(
            f, ref, acc.buffers, eps=1e-5, max_coords_per_tensor=8, rng=g.Rng(seed)
        )
        assert err <= 1e-5, (m, seed, err)


def test_backward_gradients_accumulate_across_calls():
    rng = g.Rng(5)
    params = g.init_gru_parameters(rng, 2, 2)
    _, c1 = g.gru_forward(params, random_vec(rng, 2)[None], random_vec(rng, 2)[None])
    _, c2 = g.gru_forward(params, random_vec(rng, 2)[None], random_vec(rng, 2)[None])
    gA = np.array([[1.0, -1.0]])
    gB = np.array([[0.3, 0.7]])
    acc, _, _ = g.gru_backward(params, c1, gA)
    acc, _, _ = g.gru_backward(params, c2, gB, acc)
    solo1, _, _ = g.gru_backward(params, c1, gA)
    solo2, _, _ = g.gru_backward(params, c2, gB)
    for k, v in acc.buffers.items():
        assert np.allclose(v, solo1.buffers[k] + solo2.buffers[k], atol=1e-15)


def test_shape_validation():
    params = g.init_gru_parameters(g.Rng(0), 3, 2)
    with pytest.raises(g.StructuralError):
        g.gru_forward(params, np.zeros(4), np.zeros(2))
    for h, x in (((5, 3), (4, 2)), ((5, 3), (2,)), ((3,), (5, 2)), ((5, 4), (5, 2)),
                 ((5, 3), (5, 3)), ((), (2,))):
        with pytest.raises(g.StructuralError):
            g.gru_forward(params, np.zeros(h), np.zeros(x))
    _, cache = g.gru_forward(params, np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(g.StructuralError):
        g.gru_backward(params, cache, np.zeros((1, 5)))
    other = g.init_gru_parameters(g.Rng(1), 4, 2)
    with pytest.raises(g.StructuralError):
        g.gru_backward(other, cache, np.zeros((1, 4)))


def test_backward_takes_rows_only():
    # one update is one row: a vector (or 3-D) cache or gradient is refused
    params = g.init_gru_parameters(g.Rng(0), 3, 2)
    _, vector = g.gru_forward(params, np.zeros(3), np.zeros(2))
    _, row = g.gru_forward(params, np.zeros((1, 3)), np.zeros((1, 2)))
    _, cube = g.gru_forward(params, np.zeros((1, 1, 3)), np.zeros((1, 1, 2)))
    for cache, grad in ((vector, np.zeros(3)), (vector, np.zeros((1, 3))),
                        (row, np.zeros(3)), (cube, np.zeros((1, 1, 3)))):
        with pytest.raises(g.StructuralError, match="gru_backward"):
            g.gru_backward(params, cache, grad)


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


def masked_sigmoid(x):
    """The boolean-masked sigmoid that stable_sigmoid replaced: the reference
    its bits must match."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_matches_masked_form_bitwise():
    rng = np.random.default_rng(0)
    cases = [np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 1e-320, -1e-320])]
    cases += [rng.standard_normal(n) * scale
              for n in (1, 2, 7, 31, 32, 33, 64, 129, 257) for scale in (1e-3, 1.0, 30.0, 800.0)]
    for x in cases:
        assert stable_sigmoid(x).tobytes() == masked_sigmoid(x).tobytes(), x


def test_bce_gradient_matches_masked_sigmoid_bitwise():
    logits = np.random.default_rng(1).standard_normal(12_000) * 20.0
    for logit in [0.0, -0.0, 745.0, -745.0, *logits.tolist()]:
        for label in (0.0, 1.0):
            want = float(masked_sigmoid(np.array([logit]))[0]) - label
            assert g.loss_bce(logit, label)[1] == want, logit


def backward_rows(m, n, seed):
    """A GRU, n one-row forward caches and n output gradients."""
    rng = np.random.default_rng(seed)
    d_in = m + 3
    params = g.init_gru_parameters(g.Rng(seed), m, d_in)
    caches = [g.gru_forward(params, rng.standard_normal((1, m)),
                            rng.standard_normal((1, d_in)))[1] for _ in range(n)]
    return params, caches, rng.standard_normal((n, m))


def one_row_calls(params, caches, grads):
    acc = g.GradientAccumulator(params.named())
    outs = [g.gru_backward(params, c, w[None], acc)[1:] for c, w in zip(caches, grads)]
    return acc, np.concatenate([gh for gh, _ in outs]), np.concatenate([gx for _, gx in outs])


def stacked_call(params, caches, grads):
    fields = ("h_prev", "x_in", "z", "r", "n")
    stacked = GruCache(*(np.concatenate([getattr(c, f) for c in caches]) for f in fields))
    return g.gru_backward(params, stacked, grads)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 300])
@pytest.mark.parametrize("m", [1, 4, 5, 32, 64, 128])
def test_stacked_rows_give_the_bits_of_one_row_calls(m, n):
    params, caches, grads = backward_rows(m, n, seed=m * 1000 + n)
    acc, gh, gx = stacked_call(params, caches, grads)
    want_acc, want_gh, want_gx = one_row_calls(params, caches, grads)
    assert gh.tobytes() == want_gh.tobytes()
    assert gx.tobytes() == want_gx.tobytes()
    want = want_acc.buffers
    for name, buf in acc.buffers.items():
        assert buf.tobytes() == want[name].tobytes(), name


THREAD_PROBE = """
import hashlib
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_gru import backward_rows, one_row_calls, stacked_call
for run in (stacked_call, one_row_calls):
    acc, gh, gx = run(*backward_rows(128, 65, seed=3))
    parts = [gh, gx] + [acc.buffers[k] for k in sorted(acc.buffers)]
    print(hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest())
"""


def test_stacked_rows_do_not_depend_on_blas_threads():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(g.__file__))
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", THREAD_PROBE, tests], capture_output=True, text=True,
            check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout.split()
        for threads in ("1", "2")
    }
    stacked, rows = digests["1"]
    assert stacked == rows and digests["2"] == digests["1"]


def vector_forward(params, h_prev, x_in):
    """gru_forward on one update, written with plain matrix-vector products:
    the reference for the bits of every row of a stacked call."""
    xc = np.concatenate((h_prev, x_in))
    z = stable_sigmoid(params.wz @ xc + params.bz)
    r = stable_sigmoid(params.wr @ xc + params.br)
    n = np.tanh(params.wn @ np.concatenate((r * h_prev, x_in)) + params.bn)
    return (1.0 - z) * h_prev + z * n, z, r, n


def forward_rows(m, n, seed):
    """A GRU with nonzero biases and n stacked inputs."""
    rng = np.random.default_rng(seed)
    d_in = 2 * m - 1 + (seed % 5)
    params = g.init_gru_parameters(g.Rng(seed), m, d_in)
    for b in (params.bz, params.br, params.bn):
        b[:] = rng.standard_normal(m)
    return params, rng.standard_normal((n, m)), rng.standard_normal((n, d_in))


def stacked_forward_bytes(params, h, x):
    h_new, cache = g.gru_forward(params, h, x)
    return [a.tobytes() for a in (h_new, cache.z, cache.r, cache.n)]


def row_forward_bytes(params, h, x):
    outs = [g.gru_forward(params, hi, xi) for hi, xi in zip(h, x)]
    return [np.stack(a).tobytes() for a in zip(*[(o, c.z, c.r, c.n) for o, c in outs])]


@pytest.mark.parametrize("n", [1, 2, 65, 200])
@pytest.mark.parametrize("m", [1, 4, 5, 32, 64, 128])
def test_stacked_forward_gives_the_bits_of_one_row_calls(m, n):
    params, h, x = forward_rows(m, n, seed=m * 1000 + n)
    stacked = stacked_forward_bytes(params, h, x)
    assert stacked == row_forward_bytes(params, h, x)
    reference = [np.stack(a).tobytes() for a in zip(*[vector_forward(params, hi, xi)
                                                      for hi, xi in zip(h, x)])]
    assert stacked == reference
    _, cache = g.gru_forward(params, h, x)
    assert cache.h_prev is h and cache.x_in is x


FORWARD_THREAD_PROBE = """
import hashlib
import sys
sys.path.insert(0, sys.argv[1])
from test_gru import forward_rows, row_forward_bytes, stacked_forward_bytes
for run in (stacked_forward_bytes, row_forward_bytes):
    print(hashlib.sha256(b"".join(run(*forward_rows(128, 200, seed=3)))).hexdigest())
"""


def test_stacked_forward_does_not_depend_on_blas_threads():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(g.__file__))
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", FORWARD_THREAD_PROBE, tests], capture_output=True,
            text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout.split()
        for threads in ("1", "2")
    }
    stacked, rows = digests["1"]
    assert stacked == rows and digests["2"] == digests["1"]
