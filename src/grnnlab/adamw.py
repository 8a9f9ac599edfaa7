"""AdamW with decoupled weight decay.

Decay is applied directly to the parameters (theta *= 1 - lr * wd), not
mixed into the gradient-driven moments. Defaults follow the optimizer's
canonical constants: beta1=0.9, beta2=0.999, eps=1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError


@dataclass
class AdamwState:
    lr: float = 1e-3
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(
    state: AdamwState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> None:
    """One optimizer step, updating params in place.

    The step counter increments exactly once per call, shared by every
    tensor, so bias correction is consistent across the parameter tree.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise StructuralError(f"adamw_step: grad shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay != 0.0:
            update = update + state.weight_decay * p
        p -= state.lr * update
