"""GRU cell with analytic forward and backward passes.

Gate convention: the update gate z blends the previous state with the
candidate as h_new = (1 - z) * h_prev + z * n. With all-zero weights this
reduces to h_new = 0.5 * h_prev (z = sigmoid(0) = 0.5, n = tanh(0) = 0).

The full cell input is concat(h_prev, x_in); each gate matrix therefore has
shape (m, m + d_in). In the dynamic-graph setting x_in is itself
concat(counterparty state, edge features).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .rng import Rng


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def uniform_matrix(rng: Rng, rows: int, cols: int, scale: float) -> np.ndarray:
    """Matrix with i.i.d. entries uniform in [-scale, +scale], row-major fill."""
    a, b = -scale, scale  # the arithmetic of rng.uniform(a, b), elementwise
    return (a + (b - a) * rng.u01_array(rows * cols)).reshape(rows, cols)


@dataclass
class GruParameters:
    """Update / reset / candidate gate weights (m, m + d_in) and biases (m,)."""

    wz: np.ndarray
    wr: np.ndarray
    wn: np.ndarray
    bz: np.ndarray
    br: np.ndarray
    bn: np.ndarray

    @property
    def m(self) -> int:
        return self.wz.shape[0]

    @property
    def d_in(self) -> int:
        return self.wz.shape[1] - self.wz.shape[0]

    def named(self, prefix: str = "gru.") -> dict[str, np.ndarray]:
        return {
            prefix + "wz": self.wz,
            prefix + "wr": self.wr,
            prefix + "wn": self.wn,
            prefix + "bz": self.bz,
            prefix + "br": self.br,
            prefix + "bn": self.bn,
        }


def init_gru_parameters(rng: Rng, m: int, d_in: int) -> GruParameters:
    """Entries uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero."""
    fan_in = m + d_in
    scale = 1.0 / np.sqrt(fan_in)
    return GruParameters(
        wz=uniform_matrix(rng, m, fan_in, scale),
        wr=uniform_matrix(rng, m, fan_in, scale),
        wn=uniform_matrix(rng, m, fan_in, scale),
        bz=np.zeros(m),
        br=np.zeros(m),
        bn=np.zeros(m),
    )


@dataclass
class GruCache:
    """Forward intermediates needed for the exact backward pass."""

    h_prev: np.ndarray
    x_in: np.ndarray
    z: np.ndarray
    r: np.ndarray
    n: np.ndarray


def gru_forward(
    params: GruParameters, h_prev: np.ndarray, x_in: np.ndarray
) -> tuple[np.ndarray, GruCache]:
    """One cell application. h_prev (m,), x_in (d_in,) -> h_new (m,)."""
    m = params.m
    if h_prev.shape != (m,) or x_in.shape != (params.d_in,):
        raise StructuralError(
            f"gru_forward: h_prev {h_prev.shape}, x_in {x_in.shape} "
            f"incompatible with m={m}, d_in={params.d_in}"
        )
    xc = np.concatenate((h_prev, x_in))
    z = stable_sigmoid(params.wz @ xc + params.bz)
    r = stable_sigmoid(params.wr @ xc + params.br)
    xn = np.concatenate((r * h_prev, x_in))
    n = np.tanh(params.wn @ xn + params.bn)
    h_new = (1.0 - z) * h_prev + z * n
    return h_new, GruCache(h_prev=h_prev, x_in=x_in, z=z, r=r, n=n)


def gru_backward(
    params: GruParameters,
    cache: GruCache,
    grad_h_new: np.ndarray,
    acc: dict[str, np.ndarray] | None = None,
    prefix: str = "gru.",
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Exact gradients of gru_forward.

    Accumulates parameter gradients into acc (created if None) under
    prefix + {wz, wr, wn, bz, br, bn}; returns (acc, grad_h_prev, grad_x_in).
    """
    m = params.m
    if cache.h_prev.shape != (m,):
        raise StructuralError("gru_backward: cache does not match parameters")
    if grad_h_new.shape != (m,):
        raise StructuralError(f"gru_backward: grad_h_new shape {grad_h_new.shape}")
    if acc is None:
        acc = {name: np.zeros_like(p) for name, p in params.named(prefix).items()}

    h_prev, x_in, z, r, n = cache.h_prev, cache.x_in, cache.z, cache.r, cache.n
    xc = np.concatenate((h_prev, x_in))
    xn = np.concatenate((r * h_prev, x_in))

    # h_new = (1 - z) * h_prev + z * n
    grad_z = grad_h_new * (n - h_prev)
    grad_n = grad_h_new * z
    grad_h_prev = grad_h_new * (1.0 - z)

    # candidate path: n = tanh(wn @ xn + bn)
    gn = grad_n * (1.0 - n * n)
    acc[prefix + "wn"] += np.outer(gn, xn)
    acc[prefix + "bn"] += gn
    grad_xn = params.wn.T @ gn
    grad_rh = grad_xn[:m]
    grad_x_in = grad_xn[m:].copy()
    grad_r = grad_rh * h_prev
    grad_h_prev = grad_h_prev + grad_rh * r

    # gate pre-activations through the shared input xc
    gr = grad_r * r * (1.0 - r)
    acc[prefix + "wr"] += np.outer(gr, xc)
    acc[prefix + "br"] += gr
    gz = grad_z * z * (1.0 - z)
    acc[prefix + "wz"] += np.outer(gz, xc)
    acc[prefix + "bz"] += gz

    grad_xc = params.wr.T @ gr + params.wz.T @ gz
    grad_h_prev = grad_h_prev + grad_xc[:m]
    grad_x_in += grad_xc[m:]
    return acc, grad_h_prev, grad_x_in
