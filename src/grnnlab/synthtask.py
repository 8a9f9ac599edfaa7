"""The graph adding task: generator and exact FIFO-buffer oracle.

Every node carries a buffer with slots 0..M. An edge (s, d, x) first emits
the target

    y = buf_s[M] + buf_d[M]          (pre-update tails)

and then both endpoint buffers shift one slot (FIFO) and store at slot 0 a
mix of the counterparty's pre-update tail and the edge feature:

    new buf_s[0] = 0.5 * buf_d[M] + 0.5 * x     (and symmetrically for d).

A value stored at a node's j-th touching event therefore first reaches a
target at that node's (j + M + 1)-th touching event, so M controls how far
back a model must remember.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .events import Event
from .rng import Rng


@dataclass
class SyntheticConfig:
    memory: int  # M: targets read values stored M+1 node-events earlier
    num_nodes: int = 100
    edges_per_epoch: int = 1000

    def __post_init__(self):
        if self.memory < 1:
            raise ParameterError(f"memory must be >= 1, got {self.memory}")
        if self.num_nodes < 2:
            raise ParameterError(f"num_nodes must be >= 2, got {self.num_nodes}")
        if self.edges_per_epoch < 1:
            raise ParameterError(f"edges_per_epoch must be >= 1, got {self.edges_per_epoch}")


@dataclass
class OracleState:
    """Per-node FIFO buffers, shape (num_nodes, M + 1), zero-initialized."""

    buffers: np.ndarray

    @classmethod
    def zeros(cls, num_nodes: int, memory: int) -> "OracleState":
        return cls(buffers=np.zeros((num_nodes, memory + 1)))


def oracle_step(state: OracleState, src: int, dst: int, x: float) -> float:
    """Emit the target for one edge and apply the FIFO update in place."""
    if src == dst:
        raise ParameterError(f"self-loop on node {src}")
    buf = state.buffers
    tail_s = float(buf[src, -1])
    tail_d = float(buf[dst, -1])
    buf[src, 1:] = buf[src, :-1]
    buf[dst, 1:] = buf[dst, :-1]
    buf[src, 0] = 0.5 * tail_d + 0.5 * x
    buf[dst, 0] = 0.5 * tail_s + 0.5 * x
    return tail_s + tail_d


def sample_pair(rng: Rng, num_nodes: int) -> tuple[int, int]:
    """Uniform over ordered pairs with src != dst."""
    src = rng.randrange(num_nodes)
    dst = rng.randrange(num_nodes - 1)
    if dst >= src:
        dst += 1
    return src, dst


def generate_epoch(config: SyntheticConfig, rng: Rng) -> list[Event]:
    """One fresh dynamic graph: uniform node pairs, x ~ N(0,1), targets from
    the oracle run from zero state. Timestamps are just the event index."""
    state = OracleState.zeros(config.num_nodes, config.memory)
    events = []
    for k in range(config.edges_per_epoch):
        src, dst = sample_pair(rng, config.num_nodes)
        x = rng.standard_normal()
        y = oracle_step(state, src, dst, x)
        events.append(
            Event(index=k, src=src, dst=dst, time=float(k), features=np.array([x]), y=y)
        )
    return events


def baseline_mse(events: list[Event]) -> float:
    """MSE of the trivial predictor y_hat = 0: the mean squared target."""
    if not events:
        return 0.0
    return float(np.mean([ev.y * ev.y for ev in events]))
