"""Epoch forward, full and truncated BPTT, and the training loop.

Forward: batches are processed per their strategy; each event's prediction
reads the pre-update states captured by the dynamics layer, so parallel
strategies score from the batch-start snapshot and sequential scoring sees
all earlier updates.

train_epoch forwards the epoch once, batch by batch, in both modes, and
takes one optimizer step at its end.

Full backward (f_bptt) keeps every batch's records on one tape and sweeps
it once, exactly, in reverse after the last batch: per-event loss gradients
flow through the prediction head and, via the producer slots, back across
every batch boundary to the epoch-initial states.

Truncated backward (t_bptt) sweeps each batch as soon as it is forwarded
and then releases it. Within a batch gradients flow freely; a gradient that
reaches a state produced in an *earlier* batch still enters the single GRU
update that produced it (so the recurrent cell keeps a one-hop learning
signal, as in standard lazy-update training), but that update's own state
inputs are treated as constants and the chain stops there. Per-parameter
gradients from all batches are summed.

A sweep walks its records by dependency level, highest first, as JODIE's
t-batches walk them forward: the updates of one level are independent, so
they run as stacked rows, at most accumulator.TILE per gru_backward call,
and each row gets the bits it would get alone. The one-hop tails of t_bptt
are copied into one pending TILE-row block that runs whenever it fills and
once more before the optimizer step. The sweep order (level, event index)
is a property of the dataflow graph, not of the batching, so the f_bptt
gradient has the same bits under every batching strategy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .accumulator import TILE, GradientAccumulator
from .adamw import AdamwState, adamw_step
from .batching import make_batches_fixed, make_batches_tbatch
from .dynamics import ROLES, Slot, StateDropout, StepRecord, run_batch
from .errors import ConfigError, NumericalError, StructuralError
from .events import Batch, Event, NodeStateStore
from .gru import GruCache, gru_backward
from .mlp import mlp_backward, mlp_forward
from .model import GrnnModel
from .rng import Rng

# ---------------------------------------------------------------------------
# losses


def loss_mse(y_hat: float, y: float) -> tuple[float, float]:
    """Squared error and its gradient w.r.t. y_hat."""
    diff = y_hat - y
    return diff * diff, 2.0 * diff


def loss_bce(logit: float, label: float) -> tuple[float, float]:
    """Binary cross-entropy in stable logit form; gradient is sigmoid - label."""
    val = max(logit, 0.0) - logit * label + math.log1p(math.exp(-abs(logit)))
    e = np.exp(-abs(logit))  # stable_sigmoid's arithmetic, on one scalar
    grad = float((1.0 if logit >= 0 else e) / (1.0 + e)) - label
    return val, grad


# ---------------------------------------------------------------------------
# batching configuration


@dataclass
class BatchingConfig:
    """strategy in {sequential, t_batch, fixed_parallel}; batch_size None
    means one epoch-spanning batch (sequential only)."""

    strategy: str = "fixed_parallel"
    batch_size: int | None = 200


def build_batches(events: list[Event], cfg: BatchingConfig) -> list[Batch]:
    if cfg.strategy == "t_batch":
        return make_batches_tbatch(events)
    if cfg.strategy == "sequential":
        if cfg.batch_size is None:
            return [Batch(events=list(events), strategy="sequential", index=0)] if events else []
        return make_batches_fixed(events, cfg.batch_size, strategy="sequential")
    if cfg.strategy == "fixed_parallel":
        if cfg.batch_size is None:
            raise ConfigError("fixed_parallel batching requires a batch size")
        return make_batches_fixed(events, cfg.batch_size)
    raise ConfigError(f"unknown batching strategy {cfg.strategy!r}")


# ---------------------------------------------------------------------------
# forward


@dataclass
class EpochForward:
    total_loss: float
    tape: list[StepRecord] | None


def _predict_and_score(
    records: list[StepRecord],
    model: GrnnModel,
    task: str,
    training: bool,
    mlp_dropout: float,
    dropout_rng: Rng | None,
) -> float:
    """Fill prediction caches and losses on freshly produced records."""
    batch_loss = 0.0
    for rec in records:
        ev = rec.event
        if task == "regression":
            x = np.concatenate((rec.h_src_pre, rec.h_dst_pre, ev.features))
            y_hat, cache = mlp_forward(
                model.mlp, x, dropout_rate=mlp_dropout, rng=dropout_rng, training=training
            )
            rec.loss, rec.grad_logit_pred = loss_mse(y_hat, ev.y)
            rec.pred_cache = cache
        else:  # link_ranking: positive edge vs one sampled negative
            x_pos = np.concatenate((rec.h_src_pre, rec.h_dst_pre))
            logit_pos, cache_pos = mlp_forward(
                model.mlp, x_pos, dropout_rate=mlp_dropout, rng=dropout_rng, training=training
            )
            loss_pos, rec.grad_logit_pred = loss_bce(logit_pos, 1.0)
            rec.pred_cache = cache_pos
            x_neg = np.concatenate((rec.h_src_pre, rec.h_extra_pre))
            logit_neg, cache_neg = mlp_forward(
                model.mlp, x_neg, dropout_rate=mlp_dropout, rng=dropout_rng, training=training
            )
            loss_neg, rec.grad_logit_neg = loss_bce(logit_neg, 0.0)
            rec.neg_cache = cache_neg
            rec.loss = loss_pos + loss_neg
        if not math.isfinite(rec.loss):
            raise NumericalError(f"non-finite loss at event {ev.index}")
        batch_loss += rec.loss
    return batch_loss


def _forward_batches(
    events: list[Event],
    model: GrnnModel,
    store: NodeStateStore,
    batching: BatchingConfig,
    producers: dict[int, Slot],
    record: bool,
    task: str | None,
    training: bool = False,
    rng: Rng | None = None,
    neg_universe: np.ndarray | None = None,
    state_dropout: StateDropout | None = None,
    mlp_dropout: float = 0.0,
    dropout_rng: Rng | None = None,
) -> Iterator[tuple[list[StepRecord], float]]:
    """The epoch's batch loop: yields each batch's records and summed loss
    as soon as the batch is forwarded. task None runs the state dynamics
    only (no negatives, no predictions)."""
    if task == "link_ranking" and (neg_universe is None or rng is None):
        raise ConfigError("link_ranking forward needs a negative universe and rng")
    for batch in build_batches(events, batching):
        extra = None
        if task == "link_ranking":
            extra = [int(neg_universe[rng.randrange(len(neg_universe))]) for _ in batch.events]
        records = run_batch(
            store, producers, batch, model,
            record=record,
            state_dropout=state_dropout,
            extra_reads=extra,
        )
        yield records, 0.0 if task is None else _predict_and_score(
            records, model, task, training, mlp_dropout, dropout_rng
        )


def forward_epoch(
    events: list[Event],
    model: GrnnModel,
    store: NodeStateStore,
    batching: BatchingConfig,
    record: bool = True,
    task: str | None = None,
    rng: Rng | None = None,
    neg_universe: np.ndarray | None = None,
    state_dropout: StateDropout | None = None,
    mlp_dropout: float = 0.0,
    dropout_rng: Rng | None = None,
    training: bool = False,
) -> EpochForward:
    """Process all batches, returning the summed loss and the tape."""
    tape: list[StepRecord] | None = [] if record else None
    total = 0.0
    for records, batch_loss in _forward_batches(
        events, model, store, batching, {},
        record=record, task=task or model.task, training=training,
        rng=rng, neg_universe=neg_universe,
        state_dropout=state_dropout if training else None,
        mlp_dropout=mlp_dropout, dropout_rng=dropout_rng,
    ):
        total += batch_loss
        if record:
            tape.extend(records)
    return EpochForward(total_loss=total, tape=tape)


def advance_states(
    events: list[Event],
    model: GrnnModel,
    store: NodeStateStore,
    batching: BatchingConfig,
) -> None:
    """Run the state dynamics only (no predictions, no tape); used to warm
    stores before evaluation."""
    for _ in _forward_batches(events, model, store, batching, {}, record=False, task=None):
        pass


# ---------------------------------------------------------------------------
# backward


class _UpdateRows:
    """Up to TILE endpoint updates waiting for one gru_backward call: the
    rows of their GRU caches, output gradients and state-dropout masks,
    copied, so no record stays alive for them."""

    def __init__(self, model: GrnnModel):
        m, d_in = model.m, model.gru.d_in
        self.h_prev, self.z, self.r, self.n, self.g = (np.empty((TILE, m)) for _ in range(5))
        self.x_in = np.empty((TILE, d_in))
        self.mask = np.empty((TILE, m), dtype=bool)
        self.dropout: tuple[str, float] | None = None  # (kind, rate) of the masks
        self.k = 0

    def add(self, rec: StepRecord, role: str, g_out: np.ndarray) -> None:
        cache = getattr(rec, "cache_" + role)
        if cache is None:
            raise StructuralError("gradient reached an update whose GRU cache was not kept")
        i = self.k
        self.h_prev[i] = cache.h_prev
        self.x_in[i] = cache.x_in
        self.z[i] = cache.z
        self.r[i] = cache.r
        self.n[i] = cache.n
        self.g[i] = g_out
        mask = getattr(rec, "drop_mask_" + role)
        if mask is not None:  # one StateDropout serves the whole epoch
            self.mask[i] = mask
            self.dropout = (rec.drop_kind, rec.drop_rate)
        self.k = i + 1

    def run(
        self, model: GrnnModel, acc: GradientAccumulator
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Backward through the rows' state dropout, then one gru_backward
        call, whose parameter gradients go into acc; empties the rows.

        Returns, one row per update, the gradients onto the own pre-update
        state through the GRU and through the recurrent-mix passthrough
        (None without it), and onto the counterparty's pre-update state.
        """
        k, self.k = self.k, 0
        g_new, g_pass = self.g[:k], None
        if self.dropout is not None:
            kind, rate = self.dropout
            mask = self.mask[:k]
            if kind == "regular":
                g_new = g_new * mask / (1.0 - rate)
            else:  # dropped elements passed the previous state through
                g_new, g_pass = g_new * mask, g_new * ~mask
        cache = GruCache(self.h_prev[:k], self.x_in[:k], self.z[:k], self.r[:k], self.n[:k])
        _, gh_prev, gx_in = gru_backward(model.gru, cache, g_new, acc)
        return gh_prev, g_pass, gx_in[:, : model.m]


def _add(into: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    if into is None:
        return g
    into += g
    return into


def _backward_records(
    records: list[StepRecord],
    model: GrnnModel,
    acc: GradientAccumulator,
    rows: _UpdateRows,
    tails: _UpdateRows,
) -> None:
    """Reverse sweep over one contiguous record span (a batch, or the whole
    tape), one dependency level at a time.

    A record's level is 1 plus the highest level among the span's records
    that produced the states it read, so when a level runs, the gradients
    on every state it produced are complete. Per level, in descending event
    index: the prediction heads, the updates in chunks of `rows`, then the
    state gradients go to their producers. A producer outside the span gets
    a one-hop tail through `tails`: its update adds parameter gradients,
    but its state inputs are constants.
    """
    m = model.m
    level: dict[int, int] = {}  # id(record) -> level, for the span's records
    by_level: list[list[StepRecord]] = []
    for rec in records:
        lv = 0
        for slot in (rec.src_slot, rec.dst_slot, rec.extra_slot):
            if slot is not None:
                lv = max(lv, level.get(id(slot[0]), -1) + 1)
        level[id(rec)] = lv
        if lv == len(by_level):
            by_level.append([])
        by_level[lv].append(rec)

    slot_grads: dict[tuple[int, str], np.ndarray] = {}  # produced-state grads
    for recs in reversed(by_level):
        recs.sort(key=lambda rec: rec.event.index, reverse=True)
        # gradients onto each record's pre-update src, dst and extra states
        grads: list[list[np.ndarray | None]] = []
        for rec in recs:
            g_src = g_dst = g_extra = None
            if rec.pred_cache is not None:
                _, gx = mlp_backward(model.mlp, rec.pred_cache, rec.grad_logit_pred, acc, "mlp.")
                g_src = gx[:m].copy()
                g_dst = gx[m : 2 * m].copy()
            if rec.neg_cache is not None:
                _, gx = mlp_backward(model.mlp, rec.neg_cache, rec.grad_logit_neg, acc, "mlp.")
                g_src = _add(g_src, gx[:m])
                g_extra = gx[m : 2 * m].copy()
            grads.append([g_src, g_dst, g_extra])

        # the level's updates; later levels have finished adding to their slots
        updates: list[tuple[int, int]] = []  # (position in recs, role index) per row
        blocks = []  # rows.run's outputs, TILE rows each but the last
        for pos, rec in enumerate(recs):
            for i, role in enumerate(ROLES):
                g_out = slot_grads.pop((id(rec), role), None)
                if g_out is not None:
                    rows.add(rec, role, g_out)
                    updates.append((pos, i))
                    if rows.k == TILE:
                        blocks.append(rows.run(model, acc))
        if rows.k:
            blocks.append(rows.run(model, acc))
        for j, (pos, i) in enumerate(updates):
            gh_prev, g_pass, g_other = blocks[j // TILE]
            g = grads[pos]
            g[i] = _add(g[i], gh_prev[j % TILE])
            if g_pass is not None:
                g[i] = _add(g[i], g_pass[j % TILE])
            g[1 - i] = _add(g[1 - i], g_other[j % TILE])

        # route gradients on consumed states to their producers
        for rec, g in zip(recs, grads):
            for slot, g_in in zip((rec.src_slot, rec.dst_slot, rec.extra_slot), g):
                if slot is None or g_in is None:
                    continue  # epoch-initial state (constant) or no gradient
                prod, role = slot
                if id(prod) not in level:
                    tails.add(prod, role, g_in)
                    if tails.k == TILE:
                        tails.run(model, acc)
                    continue
                key = (id(prod), role)
                if key in slot_grads:
                    slot_grads[key] += g_in
                else:
                    slot_grads[key] = g_in


# ---------------------------------------------------------------------------
# training


MODES = ("f_bptt", "t_bptt")


def _count_producers(records: list[StepRecord], live: dict[int, int]) -> None:
    """Move the producer refcounts past one batch's updates, in the order
    they ran: each update releases the slot it read and takes one for its
    record. Events have no self-loops, so the two roles touch two nodes."""
    for rec in records:
        for slot, post in ((rec.src_slot, rec.h_src_post), (rec.dst_slot, rec.h_dst_post)):
            if post is None:  # this role did not update
                continue
            if slot is not None:
                key = id(slot[0])
                live[key] -= 1
                if not live[key]:
                    del live[key]
            live[id(rec)] = live.get(id(rec), 0) + 1


def train_epoch(
    events: list[Event],
    model: GrnnModel,
    optimizer: AdamwState,
    mode: str,
    batching: BatchingConfig,
    task: str | None = None,
    rng: Rng | None = None,
    neg_universe: np.ndarray | None = None,
    state_dropout: StateDropout | None = None,
    mlp_dropout: float = 0.0,
    dropout_rng: Rng | None = None,
    store: NodeStateStore | None = None,
    num_nodes: int | None = None,
    reset_store: bool = True,
) -> dict:
    """One epoch: forward, backward per the mode, one optimizer step.

    The summed epoch loss drives gradients; the mean per-event loss is what
    gets reported. The returned "gradient" holds the buffers the optimizer
    step applied.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown training mode {mode!r}")
    if store is None:
        if num_nodes is None:
            raise ConfigError("train_epoch needs a store or num_nodes")
        store = NodeStateStore.zeros(num_nodes, model.m)
    if reset_store:
        store.reset()
    params = model.named_params()
    acc = GradientAccumulator(params)
    truncate = mode == "t_bptt"
    rows, tails = _UpdateRows(model), _UpdateRows(model)
    tape: list[StepRecord] = []
    live: dict[int, int] = {}  # t_bptt: id(record) -> nodes whose current state it produced
    total_loss = 0.0
    peak_live = 0
    for records, batch_loss in _forward_batches(
        events, model, store, batching, {},
        record=True, task=task or model.task, training=True,
        rng=rng, neg_universe=neg_universe, state_dropout=state_dropout,
        mlp_dropout=mlp_dropout, dropout_rng=dropout_rng,
    ):
        total_loss += batch_loss
        if truncate:
            # only the per-node producing records (one GRU cache each) stay
            # alive past their batch, for the one-hop tails
            _backward_records(records, model, acc, rows, tails)
            _count_producers(records, live)
            peak_live = max(peak_live, len(records) + len(live))
        else:
            tape.extend(records)
    if not truncate:
        _backward_records(tape, model, acc, rows, tails)
        peak_live = len(tape)
    if tails.k:
        tails.run(model, acc)
    adamw_step(optimizer, params, acc.buffers)

    for name, p in params.items():
        if not np.all(np.isfinite(p)):
            raise NumericalError(f"non-finite parameter {name} after optimizer step")
    n_events = len(events)
    return {
        "mean_loss": total_loss / n_events if n_events else 0.0,
        "total_loss": total_loss,
        "grad_norm": acc.grad_norm(),
        "gradient": acc.buffers,
        "n_events": n_events,
        "peak_live_records": peak_live,
    }
