"""Finite-difference verification of analytic gradients.

Central differences (f(t+eps) - f(t-eps)) / 2eps per coordinate, compared
against the analytic gradient with relative error normalized by
max(|analytic|, |numeric|, 1e-8). Coordinates can be subsampled for large
parameter trees; the check perturbs parameters in place and restores them.

epoch_gradient_check applies this to a whole training epoch: the gradient
train_epoch applies, against the independent reference losses in oracles.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .adamw import AdamwState
from .engine import BatchingConfig, train_epoch
from .errors import NumericalError
from .model import init_model
from .oracles import epoch_loss_reference, truncated_loss_reference
from .rng import Rng
from .synthtask import SyntheticConfig, generate_epoch

REL_ERR_FLOOR = 1e-8


def finite_diff_check(
    f: Callable[[], float],
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    eps: float = 1e-5,
    max_coords_per_tensor: int | None = None,
    rng: Rng | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must be deterministic and evaluate the loss at the current params;
    analytic holds the gradient to verify, shape-matched to params.
    """
    worst = 0.0
    for name, p in params.items():
        grad = analytic[name]
        flat = p.reshape(-1)
        coords = range(flat.size)
        if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
            picker = rng if rng is not None else Rng(0)
            coords = sorted(
                {picker.randrange(flat.size) for _ in range(max_coords_per_tensor)}
            )
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f()
            flat[i] = orig - eps
            f_minus = f()
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericalError(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(grad.reshape(-1)[i])
            denom = max(abs(a), abs(numeric), REL_ERR_FLOOR)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


def epoch_gradient_check(
    rng: Rng,
    m: int,
    memory: int,
    num_nodes: int,
    n_events: int,
    batching: BatchingConfig,
    mode: str,
    oracle: str | None = None,
    eps: float = 1e-5,
    max_coords_per_tensor: int | None = None,
    inject_fault: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Check one synthetic regression epoch's training gradient.

    Events come from rng's "data" substream and the model from its "init"
    substream; subsampled coordinates are drawn from rng itself. The gradient
    is the one train_epoch applies in mode, taken on a model copy so the
    parameters stay put. It is compared with longdouble central differences
    of the reference loss of oracle (default: mode): the full epoch loss for
    f_bptt, the one-hop truncated loss for t_bptt. inject_fault negates one
    gradient tensor, to show the check can fail.
    Returns (max relative error, gradient).
    """
    events = generate_epoch(
        SyntheticConfig(memory=memory, num_nodes=num_nodes, edges_per_epoch=n_events),
        rng.substream("data"),
    )
    model = init_model(rng.substream("init"), m, 1, "regression")
    gradient = train_epoch(
        events, model.copy(), AdamwState(), mode, batching, num_nodes=num_nodes
    )["gradient"]
    if inject_fault:
        gradient["gru.wz"] *= -1.0
    params0 = model.named_params()
    ref = {k: np.asarray(v, dtype=np.longdouble) for k, v in params0.items()}
    instance = (events, num_nodes, m, batching.strategy, batching.batch_size)
    if (oracle or mode) == "f_bptt":
        loss = partial(epoch_loss_reference, ref, *instance, dtype=np.longdouble)
    else:
        loss = partial(truncated_loss_reference, ref, params0, *instance, dtype=np.longdouble)
    err = finite_diff_check(
        loss, ref, gradient, eps=eps,
        max_coords_per_tensor=max_coords_per_tensor, rng=rng,
    )
    return err, gradient
