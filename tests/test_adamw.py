import numpy as np
import pytest

import grnnlab as g
from grnnlab.adamw import AdamwState, adamw_step


def small_params(rng, shape=(3, 2)):
    return {"w": np.array([[rng.standard_normal() for _ in range(shape[1])]
                           for _ in range(shape[0])])}


def test_zero_gradient_zero_decay_is_identity():
    params = small_params(g.Rng(1))
    before = {k: v.copy() for k, v in params.items()}
    state = AdamwState(lr=1e-3, weight_decay=0.0)
    for _ in range(5):
        adamw_step(state, params, {"w": np.zeros_like(params["w"])})
    assert np.array_equal(params["w"], before["w"])


def test_zero_gradient_with_decay_multiplies():
    params = small_params(g.Rng(2))
    before = {k: v.copy() for k, v in params.items()}
    lr, wd = 1e-2, 0.5
    state = AdamwState(lr=lr, weight_decay=wd)
    adamw_step(state, params, {"w": np.zeros_like(params["w"])})
    assert np.allclose(params["w"], before["w"] * (1 - lr * wd), rtol=0, atol=1e-15)
    adamw_step(state, params, {"w": np.zeros_like(params["w"])})
    assert np.allclose(params["w"], before["w"] * (1 - lr * wd) ** 2, rtol=0, atol=1e-15)


def test_constant_gradient_step_magnitude_approaches_lr():
    # with saturated moments, |update| -> lr * g / |g| = lr
    params = {"w": np.array([0.0])}
    lr = 1e-3
    state = AdamwState(lr=lr, weight_decay=0.0)
    grad = {"w": np.array([0.37])}
    prev = params["w"][0]
    for step in range(400):
        adamw_step(state, params, grad)
        delta = params["w"][0] - prev
        prev = params["w"][0]
    assert delta < 0  # moves against the gradient sign
    assert abs(abs(delta) - lr) < 0.01 * lr


def test_step_counter_increments_once_per_call():
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    state = AdamwState()
    adamw_step(state, params, {"a": np.ones(2), "b": np.ones(3)})
    assert state.step_count == 1
    adamw_step(state, params, {"a": np.ones(2), "b": np.ones(3)})
    assert state.step_count == 2


def test_bias_correction_first_step():
    # first step with wd=0 moves by ~lr * g/(|g| + eps-ish) regardless of g scale
    for scale in (1e-4, 1.0, 1e4):
        params = {"w": np.array([1.0])}
        state = AdamwState(lr=1e-3, weight_decay=0.0)
        adamw_step(state, params, {"w": np.array([scale])})
        assert abs((1.0 - params["w"][0]) - 1e-3) < 1e-6


def test_shape_mismatch_raises():
    state = AdamwState()
    with pytest.raises(g.StructuralError):
        adamw_step(state, {"w": np.zeros(3)}, {"w": np.zeros(4)})
