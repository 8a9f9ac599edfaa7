"""Two-layer perceptron head: input -> ReLU hidden -> single logit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accumulator import GradientAccumulator
from .errors import StructuralError
from .rng import Rng
from .gru import matvec, uniform_matrix


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
    a1: np.ndarray  # hidden activations as consumed by the output layer
    drop_mask: np.ndarray | None
    drop_scale: float


def mlp_hidden(
    params: MlpParameters, x: np.ndarray, mask: np.ndarray | None = None, scale: float = 1.0
) -> np.ndarray:
    """The hidden activations the output layer consumes, for one head x
    (in_dim,) or for n heads stacked as rows, with the hidden dropout mask
    (kept units True) and scale applied when a mask is given. Each row gets
    the bits of a one-row call, so the reverse sweep recomputes the bits
    mlp_forward computed."""
    a1 = np.maximum(matvec(params.w1, x) + params.b1, 0.0)
    return a1 if mask is None else a1 * mask * scale


def mlp_forward(
    params: MlpParameters, x: np.ndarray, mask: np.ndarray | None = None, scale: float = 1.0
) -> tuple[float | np.ndarray, MlpCache]:
    """Returns (raw logit, cache) for one head x (in_dim,), or (n logits,
    cache) for n heads stacked as rows (n, in_dim); each row gets the bits
    of a one-row call. mask (x's rows by hidden, kept units True) and scale
    are the hidden dropout, applied as mlp_hidden applies them, so the tape
    can keep x and the mask and recompute a1."""
    if x.ndim not in (1, 2) or x.shape[-1] != params.in_dim:
        raise StructuralError(
            f"mlp_forward: input shape {x.shape} is not (in_dim,) or (n, in_dim), "
            f"in_dim={params.in_dim}"
        )
    a1 = mlp_hidden(params, x, mask, scale)
    if x.ndim == 1:
        logit = float(params.w2 @ a1 + params.b2[0])
    else:  # a (1, hidden) x (hidden, 1) product per row: the bits of w2 @ a1
        logit = np.matmul(a1[:, None, :], params.w2[:, None])[:, 0, 0] + params.b2[0]
    return logit, MlpCache(x=x, a1=a1, drop_mask=mask, drop_scale=scale)


def mlp_backward(
    params: MlpParameters,
    cache: MlpCache,
    grad_logit: np.ndarray,
    acc: GradientAccumulator | None = None,
) -> tuple[GradientAccumulator, np.ndarray]:
    """Exact gradients of mlp_forward for n heads whose cache rows (n, .)
    and logit gradients (n,) are stacked; one head is one row. Accumulates
    into acc (created if None) under mlp.{w1, b1, w2, b2}, w1's as tile
    rows, every term in row order, so n rows in one call give the bits of n
    one-row calls; returns (acc, grad_x)."""
    if cache.x.ndim != 2 or np.shape(grad_logit) != cache.x.shape[:1]:
        raise StructuralError(
            f"mlp_backward: cache x {cache.x.shape} and grad_logit {np.shape(grad_logit)} "
            "are not (n, in_dim) and (n,)"
        )
    if acc is None:
        acc = GradientAccumulator(params.named())
    g = grad_logit[:, None]
    acc.add_rows("mlp.w2", g * cache.a1)
    acc.add_rows("mlp.b2", g)
    grad_a1 = g * params.w2
    if cache.drop_mask is not None:
        grad_a1 = grad_a1 * cache.drop_mask * cache.drop_scale
    # the ReLU gate: a1 > 0 exactly where pre1 > 0 and dropout kept the
    # unit, and where it dropped the unit grad_a1 is already ±0, so gating
    # on a1 gives the bits of gating on pre1
    grad_pre1 = grad_a1 * (cache.a1 > 0.0)
    acc.stage(("mlp.w1",), (grad_pre1,), (cache.x,))
    acc.add_rows("mlp.b1", grad_pre1)
    return acc, matvec(params.w1.T, grad_pre1)


def mlp_score_batch(params: MlpParameters, src: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Inference-only logits of every (source, candidate) pair: src (n, k),
    cand (U, in_dim - k) -> (n, U), row e scoring concat(src[e], cand[c]).
    The first layer is split at column k: the candidate half (with b1) is
    computed once per call, the source half once per source row, and each
    source row then costs one (U, hidden) ReLU and output layer, in one
    reused buffer. Products run one matrix-vector product or dot per row, so
    a pair's score is the bits of a one-pair call, whatever n, U, the pair's
    position or the BLAS thread count."""
    if (src.ndim != 2 or cand.ndim != 2
            or src.shape[1] + cand.shape[1] != params.in_dim):
        raise StructuralError(
            f"mlp_score_batch: src {src.shape} and cand {cand.shape} are not "
            f"(n, k) and (U, in_dim - k), in_dim={params.in_dim}"
        )
    k = src.shape[1]
    w1 = params.w1
    cand_half = matvec(np.ascontiguousarray(w1[:, k:]), cand) + params.b1
    src_half = matvec(np.ascontiguousarray(w1[:, :k]), src)
    w2 = params.w2[:, None]
    a1 = np.empty_like(cand_half)  # one (U, hidden) buffer, reused per source row
    scores = np.empty((len(src), len(cand), 1, 1))
    for s, out in zip(src_half, scores):
        np.maximum(np.add(s, cand_half, out=a1), 0.0, out=a1)
        np.matmul(a1[:, None, :], w2, out=out)  # the bits of w2 @ a1 per candidate
    return scores[:, :, 0, 0] + params.b2[0]
