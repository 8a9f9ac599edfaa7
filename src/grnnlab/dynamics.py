"""Applying event batches to the node-state store.

Three update regimes share one entry point, run_batch:

  sequential     - events in order; each event reads the live store, so
                   updates are visible to later events in the same batch.
  t_batch        - all reads come from the batch-start snapshot; since no
                   node repeats, this is exactly sequential processing.
  fixed_parallel - all reads come from the batch-start snapshot and only a
                   node's last in-batch event updates its state; earlier
                   same-batch updates to that node are never computed
                   (the "inconsistent history").

Within one event the two endpoint updates are coupled but simultaneous:
both consume the pre-update states of both endpoints.

One rule runs all three: a dependency level is one read of the store (a
gather), and each node keeps its last update in it. A parallel batch is one
level, read from the batch-start snapshot; a run of sequential events (a
truncated-training window or a forward_epoch) is its t-batch levels, as in
JODIE (Kumar et al., KDD 2019). run_levels runs a level's updates through
_update, the one update step, as the stacked rows of one GRU call and one
state-dropout call; each row gets the bits it would get alone.
Under state dropout, an update applies the keep mask of its row number,
from the masks the engine drew ahead.
run_batch runs a sequential batch event by event, one _update per update:
F-BPTT training's forward (its per-event kernel counts are pinned), ranking
evaluation and state warm-ups run so.

With a Tape, every update leaves one row of GRU cache, and every state read
names the row that produced the value (or -1 for the epoch-initial state),
looked up in the tape's node-indexed producer array, which is what lets the
engine run exact reverse-mode sweeps across batch boundaries. The engine
adds each event's prediction-head inputs and loss gradients to the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dropout import check_rate, recurrent_mix, regular_dropout
from .errors import ParameterError, StructuralError
from .events import Batch, Event, NodeStateStore
from .gru import GruCache, gru_forward
from .model import GrnnModel
from .rng import Rng


@dataclass
class StateDropout:
    """Training-time dropout on the node states modified in each batch."""

    rate: float
    kind: str  # "regular" | "recurrent"
    rng: Rng

    def __post_init__(self):
        if self.kind not in ("regular", "recurrent"):
            raise ParameterError(f"unknown state dropout kind {self.kind!r}")
        check_rate(self.rate, "state dropout")


class Tape:
    """What the forward pass leaves for the reverse sweep, as arrays.

    Row u of h_prev, x_in, z, r and n (column blocks of `cells`) and of keep
    is endpoint update u's GRU cache and state-dropout keep mask, one record
    of `records`. Event e keeps reads[e], the rows that
    produced its src, dst and extra pre-update states (-1: an epoch-initial
    state), writes[e], the rows of its src and dst updates (-1: none), and
    index[e] (column blocks of `links`), and for its prediction heads
    head_in[e], the src, dst and (link ranking) extra states run_batch
    returned, then (regression) the features, head_grad[e], one loss
    gradient per head, and under hidden dropout head_mask[e], one mask row
    per head: the sweep rebuilds the heads and recomputes their hidden layer.

    producer[node] is the row that produced the node's current state (-1:
    the epoch-initial state), for the `nodes` nodes of the store the forward
    runs on.

    A tape holds `events` events and `rows` update rows above its first
    `base` rows; Batch.updates gives the rows a batch needs. Truncated
    training sets base to the node count, marks where each batch starts in
    `starts`, and sweeps a window of batches at a time: releasing the window
    carries each node's producing row into the node's own row, so the tape
    holds the nodes plus one window. The records
    are preallocated, so len(records) is the update rows the tape pins: the
    sum of the batches' updates, or the nodes plus the largest window's.
    """

    def __init__(self, model: GrnnModel, nodes: int, events: int, rows: int, base: int = 0):
        m, d_in, rows = model.m, model.gru.d_in, base + rows
        cuts = np.cumsum((0, m, d_in, m, m, m)).tolist()  # h_prev | x_in | z | r | n
        self._fields = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        row = np.dtype([("cells", float, 4 * m + d_in), ("keep", bool, m)], align=True)
        self.records = np.empty(rows, dtype=(np.void, row.itemsize))  # one take copies rows
        fields = self.records.view(row)
        self.cells, self.keep = fields["cells"], fields["keep"]
        self.links = np.empty((events, 6), dtype=np.int64)  # reads | writes | index
        self.reads, self.writes, self.index = self.links[:, :3], self.links[:, 3:5], self.links[:, 5]
        link = model.task == "link_ranking"
        self.head_in = np.empty((events, 3 * m if link else model.mlp.in_dim))
        self.head_grad = np.empty((events, 2 if link else 1))
        self.head_mask, self.drop_scale = None, 1.0  # set by the first score with a mask
        self.producer = np.full(nodes, -1, dtype=np.int64)
        self.base = self.n_rows = base
        self.starts = [(0, base)]  # (first event, first row) per batch, if marked
        self.n_events = self.n_scored = 0

    def __len__(self) -> int:
        return self.n_events

    def gru_cache(self, rows) -> GruCache:
        """The GRU caches of rows (an index array or a slice), stacked."""
        cells = self.cells[rows]
        return GruCache(*(cells[:, f] for f in self._fields))

    def extend(self, events: int, rows: int) -> tuple[int, int]:
        """Add `events` events and `rows` update rows, to be filled by read
        and write (their extra read and writes start as -1: none); returns
        the first of each."""
        e, u = self.n_events, self.n_rows
        if e + events > len(self.index):
            raise StructuralError(f"tape is full at {e} events")
        if u + rows > len(self.records):
            raise StructuralError(f"tape is full at {u} rows")
        self.n_events, self.n_rows = e + events, u + rows
        self.links[e : e + events, 2:5] = -1
        return e, u

    def read(self, e, nodes: np.ndarray, index) -> None:
        """Fill the tape's events number e (an int, or an index array with
        one row of nodes each) with their event index and the rows that
        produced the pre-update states of nodes: src, dst and (link ranking)
        extra."""
        self.links[e, : nodes.shape[-1]] = self.producer[nodes]
        self.index[e] = index

    def write(self, e, role, rows, nodes, cache: GruCache, keep) -> None:
        """Fill rows with the updates of nodes, made by the tape's events
        number e in role (0: src, 1: dst). One update passes ints and vector
        cache fields; a block of k passes int arrays of k and its cache
        fields and keep masks stacked as k rows."""
        self.cells[rows] = np.concatenate((cache.h_prev, cache.x_in, cache.z, cache.r, cache.n),
                                          axis=-1)
        if keep is not None:
            self.keep[rows] = keep
        self.writes[e, role] = rows
        self.producer[nodes] = rows

    def score(self, events: int, inputs: np.ndarray, grad, mask: np.ndarray | None,
              scale: float) -> None:
        """Add the next `events` events' prediction heads: head inputs and loss
        gradients as rows (one event may pass a vector and a float) and under
        hidden dropout the mask rows, one per head, and the dropout scale."""
        lo = self.n_scored
        self.n_scored = hi = lo + events
        self.head_in[lo:hi] = inputs
        self.head_grad[lo:hi] = grad
        if mask is not None:
            if self.head_mask is None:
                self.head_mask = np.empty(self.head_grad.shape + mask.shape[-1:], dtype=bool)
            self.head_mask[lo:hi] = mask.reshape(events, -1, mask.shape[-1])
            self.drop_scale = scale

    def release(self) -> None:
        """Drop every event and row above base, after carrying the rows above
        base that produced a node's current state (the window's last update
        of each node it updated) into the nodes' own rows, as one take of
        whole records."""
        carried = np.flatnonzero(self.producer >= self.base)
        self.records.put(carried, self.records.take(self.producer[carried]))
        self.producer[carried] = carried
        self.n_events, self.n_scored, self.n_rows = 0, 0, self.base
        self.starts = [(0, self.base)]


def _node_ids(store: NodeStateStore, events: list[Event], extras: list) -> np.ndarray:
    """The events' src, dst and (extras not None) extra node ids, (events,
    2|3), after one range check naming the first unknown node in event
    order."""
    read = np.array([(ev.src, ev.dst) if extra is None else (ev.src, ev.dst, extra)
                     for ev, extra in zip(events, extras)], dtype=np.int64)
    unknown = (read < 0) | (read >= store.num_nodes)
    if unknown.any():
        store.check_node(int(read.flat[unknown.argmax()]))
    return read


def _update(store: NodeStateStore, model: GrnnModel, h_own: np.ndarray, x_in: np.ndarray,
            nodes, index, state_dropout: StateDropout | None, keep) -> GruCache:
    """The one update step: the GRU on node nodes' own pre-update state
    h_own and input x_in, then the state dropout with keep masks keep (None:
    none), into the store as made by event index. One update passes vectors
    and ints; updates that read no state another one writes pass stacked
    rows and int arrays. Returns the GRU cache."""
    h_new, cache = gru_forward(model.gru, h_own, x_in)
    if keep is not None:
        if state_dropout.kind == "regular":
            h_new = regular_dropout(h_new, keep, state_dropout.rate)
        else:
            h_new = recurrent_mix(h_new, h_own, keep)
    store.states[nodes] = h_new
    store.last_update_event[nodes] = index
    return cache


def run_batch(
    store: NodeStateStore,
    batch: Batch,
    model: GrnnModel,
    tape: Tape | None = None,
    state_dropout: StateDropout | None = None,
    extra_reads: list[int] | None = None,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """Process one batch, mutating the store and, if given, adding its events
    and updates to the tape. Returns the events' pre-update src, dst and
    (with extra_reads, one node per event) extra states, (events, 2|3, m).
    Every node id is checked before any update, so an unknown one leaves the
    store and the tape as they were. A parallel batch is one run_levels
    level; a sequential batch runs event by event. With state_dropout, keep
    holds the state keep masks, (batch.updates, m): update row u (as
    run_levels numbers it) takes keep[u]."""
    if keep is None and state_dropout is not None and state_dropout.rate != 0.0:
        raise ParameterError("run_batch: state dropout needs its keep masks")
    events = batch.events
    if batch.strategy != "sequential":
        # a batch that repeats no node (every t-batch) drops no update: no filter
        last = batch.last_event_per_node if batch.updates < 2 * len(events) else None
        return run_levels(store, events, [list(range(len(events)))] if events else [], model,
                          tape, state_dropout, extra_reads, keep, last)
    extras = [None] * len(events) if extra_reads is None else extra_reads
    read = _node_ids(store, events, extras)
    # each event reads the live store, after every earlier update; event pos
    # makes rows row0 + 2 pos + role
    if tape is not None:
        e0, row0 = tape.extend(len(events), 2 * len(events))
    pre = np.empty(read.shape + (store.m,))
    for pos, ev in enumerate(events):
        pre[pos] = store.states[read[pos]]
        if tape is not None:
            tape.read(e0 + pos, read[pos], ev.index)
        for role, node in enumerate((ev.src, ev.dst)):
            # the GRU input is the counterparty's pre-update state
            x_in = np.concatenate((pre[pos, 1 - role], ev.features))
            mask = None if keep is None else keep[2 * pos + role]
            cache = _update(store, model, pre[pos, role], x_in, node, ev.index, state_dropout,
                            mask)
            if tape is not None:
                tape.write(e0 + pos, role, row0 + 2 * pos + role, node, cache, mask)
    return pre


def run_levels(
    store: NodeStateStore,
    events: list[Event],
    levels: list[list[int]],
    model: GrnnModel,
    tape: Tape | None,
    state_dropout: StateDropout | None = None,
    extra_reads: list[int] | None = None,
    keep: np.ndarray | None = None,
    last: dict[int, int] | None = None,
) -> np.ndarray:
    """Process events level by level. levels hold event positions; a level
    reads its pre-update states with one gather, and its updates (src, then
    dst, per event) run as one stacked _update. A run of sequential events
    passes its batching.tbatch_levels (of the nodes each event touches,
    extra read included), which touch a node once per level; a parallel
    batch is one level, and where its nodes repeat, last
    (Batch.last_event_per_node) keeps each node's last update only. Event
    pos's updates are rows 2 pos + role, as in a sequential batch, or with
    last the computed updates numbered in event order. With a tape, event
    pos fills tape event e0 + pos and row u tape row row0 + u; with
    state_dropout, row u takes keep[u]. Returns what run_batch returns."""
    extras = [None] * len(events) if extra_reads is None else extra_reads
    read = _node_ids(store, events, extras)
    if tape is not None:
        e0, row0 = tape.extend(len(events), 2 * len(events) if last is None else len(last))
    pre = np.empty(read.shape + (store.m,))
    features = np.array([ev.features for ev in events])
    index = np.array([ev.index for ev in events])
    for level in levels:
        at = np.array(level)
        ids = read[at]
        pre[at] = store.states[ids]
        if tape is not None:
            tape.read(e0 + at, ids, index[at])
        at, roles = np.repeat(at, 2), np.tile((0, 1), len(level))
        nodes, rows = read[at, roles], 2 * at + roles
        if last is not None:
            final = np.array([last[node] for node in nodes.tolist()]) == at
            at, roles, nodes, rows = at[final], roles[final], nodes[final], np.arange(final.sum())
        x_in = np.concatenate((pre[at, 1 - roles], features[at]), axis=1)
        mask = None if keep is None else keep[rows]
        cache = _update(store, model, pre[at, roles], x_in, nodes, index[at], state_dropout, mask)
        if tape is not None:
            tape.write(e0 + at, roles, row0 + rows, nodes, cache, mask)
    return pre
