"""The three event-stream batching strategies.

Fixed-size slicing serves both the parallel (last-event-wins) regime and
plain sequential chunking; t-batches are variable-sized and built greedily
so that no node appears twice in a batch, which makes parallel processing
exact.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import ParameterError
from .events import Batch, Event


def make_batches_fixed(
    events: list[Event], batch_size: int, strategy: str = "fixed_parallel"
) -> list[Batch]:
    """Consecutive slices of the global order; the final batch may be short."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if strategy not in ("fixed_parallel", "sequential"):
        raise ParameterError(f"unsupported strategy {strategy!r} for fixed batching")
    return [
        Batch(events=events[i : i + batch_size], strategy=strategy, index=b)
        for b, i in enumerate(range(0, len(events), batch_size))
    ]


def tbatch_levels(touched: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """Greedy earliest-feasible levels of a run of events, given the nodes
    each event touches: event k goes to level 1 + the highest level of an
    earlier event touching one of its nodes, so no node is touched at two
    events of one level, and a node's events keep their order across
    levels. Returns each level's event positions, ascending."""
    last: dict[int, int] = {}
    levels: list[list[int]] = []
    for pos, nodes in enumerate(touched):
        lv = 0
        for node in nodes:
            after = last.get(node, -1) + 1
            if after > lv:
                lv = after
        if lv == len(levels):
            levels.append([])
        levels[lv].append(pos)
        for node in nodes:
            last[node] = lv
    return levels


def make_batches_tbatch(events: list[Event]) -> list[Batch]:
    """JODIE's t-batches: the tbatch_levels of the events' endpoints, so
    each batch holds at most one event per node and within-batch order
    follows the global order."""
    levels = tbatch_levels((ev.src, ev.dst) for ev in events)
    return [Batch(events=[events[pos] for pos in level], strategy="t_batch", index=b)
            for b, level in enumerate(levels)]


def assert_tbatch_valid(batch: Batch) -> None:
    """No node id may appear twice within a t-batch."""
    seen: set[int] = set()
    for ev in batch.events:
        for node in (ev.src, ev.dst):
            if node in seen:
                raise AssertionError(f"node {node} repeats in t-batch {batch.index}")
            seen.add(node)
