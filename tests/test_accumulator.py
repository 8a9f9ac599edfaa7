import math
import os
import subprocess
import sys

import numpy as np
import pytest

import grnnlab as g
from grnnlab.accumulator import TILE
from grnnlab.adamw import AdamwState, adamw_step

from helpers import params_equal


def staged_rows(n, rows=3, cols=5, seed=0):
    """n row pairs (g, h, x) with g of length 2 * rows split in two halves."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(2 * rows), rng.standard_normal(2), rng.standard_normal(cols - 2))
            for _ in range(n)]


@pytest.mark.parametrize("n", [0, 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 2])
def test_tiled_sum_matches_outer_product_loop(n):
    rows, cols = 3, 5
    params = {name: np.zeros((rows, cols)) for name in "abc"}
    acc = g.GradientAccumulator(params)
    want = {name: np.zeros((rows, cols)) for name in params}
    scale = np.zeros((rows, cols))  # sum of |g| |x| per entry
    for gv, h, x in staged_rows(n, rows, cols):
        xv = np.concatenate((h, x))
        acc.stage(("a", "b"), (gv[None, :rows], gv[None, rows:]), (h[None], x[None]))
        acc.stage(("c",), (gv[None, :rows],), (xv[None],))
        want["a"] += np.outer(gv[:rows], xv)
        want["b"] += np.outer(gv[rows:], xv)
        want["c"] += np.outer(gv[:rows], xv)
        scale += np.outer(np.abs(gv[:rows]) + np.abs(gv[rows:]), np.abs(xv))
    tol = TILE * np.finfo(np.float64).eps * scale  # fixed from the dtype, before the run
    got = acc.buffers
    for name in params:
        assert np.all(np.abs(got[name] - want[name]) <= tol), name
    assert got["a"].tobytes() == got["c"].tobytes()  # same rows, same tiles: same bits


def test_reads_reduce_pending_rows():
    params = {"w": np.zeros((2, 3)), "b": np.zeros(2)}
    acc = g.GradientAccumulator(params)
    gv, xv = np.array([[1.0, -2.0]]), np.array([[0.5, 1.0, 3.0]])
    acc.stage(("w",), (gv,), (xv,))
    acc.add_rows("b", gv)
    assert acc.grad_norm() == math.sqrt(float((np.outer(gv, xv) ** 2).sum()) + 5.0)
    acc.stage(("w",), (gv,), (xv,))
    assert np.array_equal(acc.buffers["w"], 2.0 * np.outer(gv, xv))


def tiny_epoch():
    cfg = g.SyntheticConfig(memory=2, num_nodes=6, edges_per_epoch=5)
    events = g.generate_epoch(cfg, g.Rng(4).substream("data"))
    model = g.init_model(g.Rng(4).substream("init"), 3, 1, "regression")
    return events, model


@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
def test_epoch_stats_and_step_see_reduced_gradient(mode):
    # five events stage fewer than TILE rows: nothing is reduced before a read
    events, model = tiny_epoch()
    before = model.copy()
    stats = g.train_epoch(events, model, AdamwState(), mode, g.BatchingConfig("sequential", 2),
                          num_nodes=6)
    gradient = stats["gradient"]
    assert np.any(gradient["gru.wz"] != 0) and np.any(gradient["mlp.w1"] != 0)
    norm = math.sqrt(sum(float((b * b).sum()) for b in gradient.values()))
    assert stats["grad_norm"] == norm
    params = before.named_params()
    adamw_step(AdamwState(), params, gradient)
    assert params_equal(params, model.named_params())


@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
def test_identical_epochs_give_identical_bits(mode):
    # 80 events stage several full tiles per weight matrix
    cfg = g.SyntheticConfig(memory=2, num_nodes=10, edges_per_epoch=80)
    events = g.generate_epoch(cfg, g.Rng(8).substream("data"))
    model = g.init_model(g.Rng(8).substream("init"), 4, 1, "regression")
    runs = [g.train_epoch(events, model.copy(), AdamwState(), mode,
                          g.BatchingConfig("sequential", None if mode == "f_bptt" else 1),
                          num_nodes=10)["gradient"] for _ in range(2)]
    assert params_equal(*runs)


THREAD_PROBE = """
import hashlib
import numpy as np
from grnnlab import GradientAccumulator
rng = np.random.default_rng(0)
acc = GradientAccumulator({"w": np.zeros((128, 257))})
for _ in range(64):
    acc.stage(("w",), (rng.standard_normal((1, 128)),), (rng.standard_normal((1, 257)),))
print(hashlib.sha256(acc.buffers["w"].tobytes()).hexdigest())
"""


def test_tile_sum_does_not_depend_on_blas_threads():
    # at this shape a threaded OpenBLAS GEMM gives other bits than one thread
    src = os.path.dirname(os.path.dirname(g.__file__))
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", THREAD_PROBE], capture_output=True, text=True, check=True,
            timeout=60, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    }
    assert digests["1"] == digests["2"]
