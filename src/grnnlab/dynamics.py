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

Every state read is tagged with the step record that produced the value
(or None for the epoch-initial zero state), which is what lets the engine
run exact reverse-mode sweeps across batch boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dropout import check_rate, recurrent_mix, regular_dropout
from .errors import ParameterError
from .events import Batch, Event, NodeStateStore
from .gru import GruCache, gru_forward
from .mlp import MlpCache
from .model import GrnnModel
from .rng import Rng

ROLES = ("src", "dst")
Slot = tuple["StepRecord", str]  # (producing record, role)


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


@dataclass(eq=False)
class StepRecord:
    """Everything the forward pass of one event leaves behind.

    Identity (not value) semantics: records double as dataflow-graph nodes,
    keyed by id() during backward sweeps.
    """

    event: Event
    batch_index: int
    h_src_pre: np.ndarray
    h_dst_pre: np.ndarray
    src_slot: Slot | None
    dst_slot: Slot | None
    # update payloads, one per role; None when this event does not update
    # that endpoint
    cache_src: GruCache | None = None
    cache_dst: GruCache | None = None
    h_src_post: np.ndarray | None = None
    h_dst_post: np.ndarray | None = None
    # state-dropout bookkeeping (masks are keep-masks over the new state)
    drop_kind: str | None = None
    drop_rate: float = 0.0
    drop_mask_src: np.ndarray | None = None
    drop_mask_dst: np.ndarray | None = None
    # extra read-only state capture (negative destination during training)
    h_extra_pre: np.ndarray | None = None
    extra_slot: Slot | None = None
    # prediction-side payloads, filled by the engine
    loss: float = 0.0
    pred_cache: MlpCache | None = None
    grad_logit_pred: float = 0.0
    neg_cache: MlpCache | None = None
    grad_logit_neg: float = 0.0


def _apply_state_dropout(
    h_new: np.ndarray, h_prev: np.ndarray, sd: StateDropout | None
) -> tuple[np.ndarray, np.ndarray | None]:
    if sd is None or sd.rate == 0.0:
        return h_new, None
    if sd.kind == "regular":
        return regular_dropout(h_new, sd.rate, sd.rng)
    return recurrent_mix(h_new, h_prev, sd.rate, sd.rng)


def run_batch(
    store: NodeStateStore,
    producers: dict[int, Slot],
    batch: Batch,
    model: GrnnModel,
    record: bool = False,
    state_dropout: StateDropout | None = None,
    extra_reads: list[int | None] | None = None,
) -> list[StepRecord]:
    """Process one batch, mutating the store; returns one record per event.

    producers maps node id -> slot that wrote its current state; it is
    maintained across batches within an epoch and must start empty at reset.
    """
    sequential = batch.strategy == "sequential"
    records: list[StepRecord] = []

    # read pass: capture pre-update states and their provenance
    for pos, ev in enumerate(batch.events):
        store.check_node(ev.src)
        store.check_node(ev.dst)
        rec = StepRecord(
            event=ev,
            batch_index=batch.index,
            h_src_pre=store.states[ev.src].copy(),
            h_dst_pre=store.states[ev.dst].copy(),
            src_slot=producers.get(ev.src),
            dst_slot=producers.get(ev.dst),
        )
        if state_dropout is not None:
            rec.drop_kind = state_dropout.kind
            rec.drop_rate = state_dropout.rate
        if extra_reads is not None and extra_reads[pos] is not None:
            node = extra_reads[pos]
            store.check_node(node)
            rec.h_extra_pre = store.states[node].copy()
            rec.extra_slot = producers.get(node)
        records.append(rec)
        if sequential:
            for role in ROLES:
                _update_step(store, producers, rec, model, record, state_dropout, role)

    if not sequential:
        last = batch.last_event_per_node
        for pos, rec in enumerate(records):
            for role, node in zip(ROLES, (rec.event.src, rec.event.dst)):
                if last[node] == pos:
                    _update_step(store, producers, rec, model, record, state_dropout, role)
    return records


def _update_step(
    store: NodeStateStore,
    producers: dict[int, Slot],
    rec: StepRecord,
    model: GrnnModel,
    record: bool,
    state_dropout: StateDropout | None,
    role: str,
) -> None:
    """Update one endpoint of rec's event and fill rec's fields for that
    role; the GRU input is the counterparty's pre-update state."""
    ev = rec.event
    if role == "src":
        node, h_own, h_other = ev.src, rec.h_src_pre, rec.h_dst_pre
    else:
        node, h_own, h_other = ev.dst, rec.h_dst_pre, rec.h_src_pre
    h_new, cache = gru_forward(model.gru, h_own, np.concatenate((h_other, ev.features)))
    h_new, mask = _apply_state_dropout(h_new, h_own, state_dropout)
    setattr(rec, "h_" + role + "_post", h_new)
    setattr(rec, "drop_mask_" + role, mask)
    if record:
        setattr(rec, "cache_" + role, cache)
    store.set_state(node, h_new, ev.index)
    producers[node] = (rec, role)
