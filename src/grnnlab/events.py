"""Event/graph data model and the per-node hidden-state store."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError


@dataclass(frozen=True, eq=False)
class Event:
    """One timestamped interaction between two distinct nodes.

    y is the regression target where the task defines one; link-prediction
    events are implicit positives and carry y=None. Identity semantics: the
    numpy feature field makes value equality ill-defined.
    """

    index: int
    src: int
    dst: int
    time: float
    features: np.ndarray
    y: float | None = None

    def __post_init__(self):
        if self.src == self.dst:
            raise ParameterError(f"event {self.index}: self-loop on node {self.src}")


@dataclass
class NodeStateStore:
    """Hidden state h(i) for every node plus last-update bookkeeping."""

    states: np.ndarray  # (num_nodes, m)
    last_update_event: np.ndarray  # (num_nodes,) event ordinal, -1 = never

    @classmethod
    def zeros(cls, num_nodes: int, m: int) -> "NodeStateStore":
        return cls(
            states=np.zeros((num_nodes, m)),
            last_update_event=np.full(num_nodes, -1, dtype=np.int64),
        )

    @property
    def num_nodes(self) -> int:
        return self.states.shape[0]

    @property
    def m(self) -> int:
        return self.states.shape[1]

    def check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise StructuralError(f"unknown node id {node} (store has {self.num_nodes})")

    def reset(self) -> "NodeStateStore":
        """Zero all states and clear bookkeeping; idempotent."""
        self.states.fill(0.0)
        self.last_update_event.fill(-1)
        return self


@dataclass
class Batch:
    """An ordered slice of the global event stream plus its update semantics.

    strategy:
      sequential     - events processed one by one, updates visible within
                       the batch.
      t_batch        - conflict-free parallel batch (no node repeats).
      fixed_parallel - parallel batch where a node's last in-batch event
                       determines its new state; earlier same-batch updates
                       to that node are dropped.
    """

    events: list[Event]
    strategy: str
    index: int = 0
    last_event_per_node: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.strategy in ("fixed_parallel", "t_batch"):
            for pos, ev in enumerate(self.events):
                self.last_event_per_node[ev.src] = pos
                self.last_event_per_node[ev.dst] = pos

    @property
    def updates(self) -> int:
        """Endpoint updates the batch computes: both of every event when
        sequential, one per node (from its last event) when parallel."""
        if self.strategy == "sequential":
            return 2 * len(self.events)
        return len(self.last_event_per_node)
