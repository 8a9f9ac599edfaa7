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

from .accumulator import GradientAccumulator
from .errors import StructuralError
from .rng import Rng


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    with e = exp(-|x|), so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w @ x for a vector x or for every row of x (n, w.shape[1]). The
    stacked matmul runs one matrix-vector product per row, so each row gets
    the bits of w @ x alone. A vector skips the reshapes, which would add
    about 2 µs to each sequential update at m=32."""
    if x.ndim == 1:
        return w @ x
    return np.matmul(w, x[..., None])[..., 0]


def gru_forward(
    params: GruParameters, h_prev: np.ndarray, x_in: np.ndarray
) -> tuple[np.ndarray, GruCache]:
    """One cell application, h_prev (m,), x_in (d_in,) -> h_new (m,), or n
    independent ones stacked as rows, (n, m), (n, d_in) -> (n, m); each row
    gets the bits of a one-row call."""
    m = params.m
    if h_prev.shape[-1:] != (m,) or x_in.shape != h_prev.shape[:-1] + (params.d_in,):
        raise StructuralError(
            f"gru_forward: h_prev {h_prev.shape}, x_in {x_in.shape} "
            f"incompatible with m={m}, d_in={params.d_in}"
        )
    xc = np.concatenate((h_prev, x_in), axis=-1)
    z = stable_sigmoid(matvec(params.wz, xc) + params.bz)
    r = stable_sigmoid(matvec(params.wr, xc) + params.br)
    xn = np.concatenate((r * h_prev, x_in), axis=-1)
    n = np.tanh(matvec(params.wn, xn) + params.bn)
    h_new = (1.0 - z) * h_prev + z * n
    return h_new, GruCache(h_prev=h_prev, x_in=x_in, z=z, r=r, n=n)


def gru_backward(
    params: GruParameters,
    cache: GruCache,
    grad_h_new: np.ndarray,
    acc: GradientAccumulator | None = None,
) -> tuple[GradientAccumulator, np.ndarray, np.ndarray]:
    """Exact gradients of gru_forward for n updates whose cache fields and
    output gradients are stacked as rows (n, .); one update is one row.

    Accumulates parameter gradients into acc (created if None) under
    gru.{wz, wr, wn, bz, br, bn}: the weight-matrix terms as tile rows and
    the bias terms one row after another, both in row order, so n rows in
    one call give the same bits as n one-row calls. Returns (acc,
    grad_h_prev, grad_x_in), one row each per input row.
    """
    m = params.m
    g, h_prev, x_in, z, r, n = grad_h_new, cache.h_prev, cache.x_in, cache.z, cache.r, cache.n
    if h_prev.ndim != 2 or h_prev.shape[1] != m or g.shape != h_prev.shape:
        raise StructuralError(
            f"gru_backward: cache h_prev {h_prev.shape} and grad_h_new {g.shape} are not (n, {m})"
        )
    if acc is None:
        acc = GradientAccumulator(params.named())

    # h_new = (1 - z) * h_prev + z * n
    grad_z = g * (n - h_prev)
    grad_n = g * z
    grad_h_prev = g * (1.0 - z)

    # candidate path: n = tanh(wn @ xn + bn), xn = concat(r * h_prev, x_in)
    gn = grad_n * (1.0 - n * n)
    acc.stage(("gru.wn",), (gn,), (r * h_prev, x_in))
    acc.add_rows("gru.bn", gn)
    grad_xn = matvec(params.wn.T, gn)
    grad_rh = grad_xn[:, :m]
    grad_r = grad_rh * h_prev
    grad_h_prev = grad_h_prev + grad_rh * r

    # gate pre-activations through the shared input xc = concat(h_prev, x_in)
    gr = grad_r * r * (1.0 - r)
    gz = grad_z * z * (1.0 - z)
    acc.stage(("gru.wz", "gru.wr"), (gz, gr), (h_prev, x_in))
    acc.add_rows("gru.br", gr)
    acc.add_rows("gru.bz", gz)

    grad_xc = matvec(params.wr.T, gr) + matvec(params.wz.T, gz)
    grad_h_prev = grad_h_prev + grad_xc[:, :m]
    grad_x_in = grad_xn[:, m:] + grad_xc[:, m:]
    return acc, grad_h_prev, grad_x_in
