"""Two-layer perceptron head: input -> ReLU hidden -> single logit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .rng import Rng
from .gru import uniform_matrix


@dataclass
class MlpParameters:
    w1: np.ndarray  # (hidden, in_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # (1,)

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def named(self, prefix: str = "mlp.") -> dict[str, np.ndarray]:
        return {
            prefix + "w1": self.w1,
            prefix + "b1": self.b1,
            prefix + "w2": self.w2,
            prefix + "b2": self.b2,
        }


def init_mlp_parameters(rng: Rng, in_dim: int, hidden: int) -> MlpParameters:
    return MlpParameters(
        w1=uniform_matrix(rng, hidden, in_dim, 1.0 / np.sqrt(in_dim)),
        b1=np.zeros(hidden),
        w2=uniform_matrix(rng, 1, hidden, 1.0 / np.sqrt(hidden)).reshape(-1),
        b2=np.zeros(1),
    )


@dataclass
class MlpCache:
    x: np.ndarray
    pre1: np.ndarray
    a1: np.ndarray  # hidden activations as consumed by the output layer
    drop_mask: np.ndarray | None
    drop_scale: float


def mlp_forward(
    params: MlpParameters,
    x: np.ndarray,
    dropout_rate: float = 0.0,
    rng: Rng | None = None,
    training: bool = False,
) -> tuple[float, MlpCache]:
    """Returns (raw logit, cache). Hidden dropout only when training."""
    if x.shape != (params.in_dim,):
        raise StructuralError(
            f"mlp_forward: input shape {x.shape} != ({params.in_dim},)"
        )
    pre1 = params.w1 @ x + params.b1
    a1 = np.maximum(pre1, 0.0)
    mask = None
    scale = 1.0
    if training and dropout_rate > 0.0:
        mask = rng.keep_mask(a1.size, dropout_rate)
        scale = 1.0 / (1.0 - dropout_rate)
        a1 = a1 * mask * scale
    logit = float(params.w2 @ a1 + params.b2[0])
    return logit, MlpCache(x=x, pre1=pre1, a1=a1, drop_mask=mask, drop_scale=scale)


def mlp_backward(
    params: MlpParameters,
    cache: MlpCache,
    grad_logit: float,
    acc: dict[str, np.ndarray] | None = None,
    prefix: str = "mlp.",
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of mlp_forward; returns (acc, grad_x)."""
    if acc is None:
        acc = {name: np.zeros_like(p) for name, p in params.named(prefix).items()}
    acc[prefix + "w2"] += grad_logit * cache.a1
    acc[prefix + "b2"] += grad_logit
    grad_a1 = grad_logit * params.w2
    if cache.drop_mask is not None:
        grad_a1 = grad_a1 * cache.drop_mask * cache.drop_scale
    grad_pre1 = grad_a1 * (cache.pre1 > 0.0)
    acc[prefix + "w1"] += np.outer(grad_pre1, cache.x)
    acc[prefix + "b1"] += grad_pre1
    grad_x = params.w1.T @ grad_pre1
    return acc, grad_x


def mlp_score_batch(params: MlpParameters, xs: np.ndarray) -> np.ndarray:
    """Inference-only logits for a batch of inputs. xs (n, in_dim) -> (n,)."""
    if xs.ndim != 2 or xs.shape[1] != params.in_dim:
        raise StructuralError(f"mlp_score_batch: bad input shape {xs.shape}")
    hidden = np.maximum(xs @ params.w1.T + params.b1, 0.0)
    return hidden @ params.w2 + params.b2[0]
