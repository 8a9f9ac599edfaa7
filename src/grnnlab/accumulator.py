"""Parameter-gradient buffers that sum weight-matrix gradients in row tiles.

A weight matrix's gradient is a sum of outer products g x^T, one per cell
application. The kernels stage each pair (g, x) as one row of a fixed
TILE-row tile; a full tile is reduced into its buffer with one product,
G[:n].T @ X[:n]. Rows are reduced in the order they were staged, so the sum
depends only on that order and on when the buffers are read: a rerun gives
the same bits. Reading the buffers (``buffers``, ``grad_norm``) first
reduces every pending row, so no reader sees a partial sum.

The product is an einsum, not a BLAS GEMM: OpenBLAS splits a GEMM's output
among its threads, and the bits of a (128, 64) x (64, 257) product then
change with OPENBLAS_NUM_THREADS. einsum calls no BLAS, so the gradient is
the same for any thread count.
"""

from __future__ import annotations

import math

import numpy as np

TILE = 64


class _Tile:
    """Pending rows of the weight matrices that share one input row per
    staged term: G holds their g vectors side by side, X the input."""

    def __init__(self, targets: list[np.ndarray]):
        self.targets = targets
        self.g = np.empty((TILE, sum(t.shape[0] for t in targets)))
        self.x = np.empty((TILE, targets[0].shape[1]))
        self.n = 0

    def stage(self, gs: tuple[np.ndarray, ...], xs: tuple[np.ndarray, ...]) -> None:
        """Stage k rows from (k, .) arrays in row order; the tile is reduced
        whenever it fills."""
        k = gs[0].shape[0]
        lo = 0
        while lo < k:
            i = self.n
            hi = min(k, lo + TILE - i)
            j = i + hi - lo
            np.concatenate([a[lo:hi] for a in gs], axis=1, out=self.g[i:j])
            np.concatenate([a[lo:hi] for a in xs], axis=1, out=self.x[i:j])
            self.n = j
            lo = hi
            if j == TILE:
                self.flush()

    def flush(self) -> None:
        n = self.n
        if not n:
            return
        total = np.einsum("ki,kj->ij", self.g[:n], self.x[:n])  # G[:n].T @ X[:n]
        lo = 0
        for target in self.targets:
            hi = lo + target.shape[0]
            target += total[lo:hi]
            lo = hi
        self.n = 0


class GradientAccumulator:
    """Parameter-shaped gradient buffers, keyed like the parameters."""

    def __init__(self, params: dict[str, np.ndarray]):
        self._buffers = {name: np.zeros_like(p) for name, p in params.items()}
        self._tiles: dict[tuple[str, ...], _Tile] = {}

    def add_rows(self, name: str, rows: np.ndarray) -> None:
        """Add the rows of rows (k, .) to a buffer one after another, as k
        in-place additions would. An accumulate is sequential for every row
        width; a reduce over one-element rows would sum pairwise."""
        buf = self._buffers[name]
        buf[...] = np.add.accumulate(np.concatenate((buf[None], rows)))[-1]

    def stage(
        self, names: tuple[str, ...], gs: tuple[np.ndarray, ...], xs: tuple[np.ndarray, ...]
    ) -> None:
        """Stage the outer products outer(gs[k], concat(xs)) into the weight
        matrices names[k] as tile rows, one per row of the (rows, .) arrays;
        the matrices share the input rows."""
        tile = self._tiles.get(names)
        if tile is None:
            tile = self._tiles[names] = _Tile([self._buffers[name] for name in names])
        tile.stage(gs, xs)

    @property
    def buffers(self) -> dict[str, np.ndarray]:
        """The summed gradients, with every staged row reduced."""
        for tile in self._tiles.values():
            tile.flush()
        return self._buffers

    def grad_norm(self) -> float:
        return math.sqrt(sum(float((b * b).sum()) for b in self.buffers.values()))
