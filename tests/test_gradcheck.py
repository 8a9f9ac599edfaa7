import numpy as np
import pytest

import grnnlab as g
from grnnlab.adamw import AdamwState
from helpers import epoch_loss_fn


def test_quadratic_is_exact_to_roundoff():
    theta = {"t": np.array([1.0])}

    def f():
        return float(0.5 * theta["t"][0] ** 2)

    err = g.finite_diff_check(f, theta, {"t": theta["t"].copy()}, eps=1e-5)
    assert err <= 1e-9


def test_constant_function_zero_error():
    theta = {"t": np.array([2.0, -1.0])}
    err = g.finite_diff_check(f=lambda: 3.0, params=theta,
                              analytic={"t": np.zeros(2)}, eps=1e-5)
    assert err == 0.0


def test_detects_wrong_gradient():
    theta = {"t": np.array([1.5])}

    def f():
        return float(theta["t"][0] ** 2)

    err = g.finite_diff_check(f, theta, {"t": np.array([-3.0])}, eps=1e-5)
    assert err > 0.5


def test_nonfinite_loss_raises():
    theta = {"t": np.array([0.0])}

    def f():
        return float("nan")

    with pytest.raises(g.NumericalError):
        g.finite_diff_check(f, theta, {"t": np.zeros(1)})


def test_coordinate_subsampling_still_perturbs_within_bounds():
    theta = {"t": np.arange(50, dtype=np.float64)}
    calls = []

    def f():
        calls.append(theta["t"].copy())
        return float((theta["t"] ** 2).sum() / 2)

    err = g.finite_diff_check(f, theta, {"t": theta["t"].copy()}, eps=1e-5,
                              max_coords_per_tensor=5, rng=g.Rng(1))
    assert err <= 1e-6
    assert len(calls) <= 10  # 5 coords * 2 evaluations
    assert np.array_equal(theta["t"], np.arange(50))  # restored afterwards


def test_epoch_level_full_bptt_check():
    # the engine's own float64 forward as f; small instance keeps noise low
    cfg = g.SyntheticConfig(memory=2, num_nodes=6, edges_per_epoch=10)
    events = g.generate_epoch(cfg, g.Rng(3).substream("data"))
    model = g.init_model(g.Rng(3).substream("init"), 4, 1, "regression")
    batching = g.BatchingConfig(strategy="sequential", batch_size=None)
    gradient = g.train_epoch(events, model.copy(), AdamwState(), "f_bptt", batching,
                             num_nodes=cfg.num_nodes)["gradient"]
    err = g.finite_diff_check(
        epoch_loss_fn(events, model, cfg.num_nodes, batching),
        model.named_params(), gradient, eps=1e-5,
    )
    assert err <= 1e-5
