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
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .accumulator import GradientAccumulator
from .adamw import AdamwState, adamw_step
from .batching import make_batches_fixed, make_batches_tbatch
from .dynamics import Slot, StateDropout, StepRecord, run_batch
from .errors import ConfigError, NumericalError, StructuralError
from .events import Batch, Event, NodeStateStore
from .gru import gru_backward, stable_sigmoid
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
    grad = float(stable_sigmoid(np.array([logit]))[0]) - label
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


def _dropout_backward(
    g_out: np.ndarray, mask: np.ndarray | None, kind: str | None, rate: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """Route a produced-state gradient through the state dropout that made it.

    Returns (gradient into the GRU output, extra gradient onto the pre-update
    state) - the latter only for the recurrent mix, whose dropped elements
    passed the previous state through.
    """
    if mask is None:
        return g_out, None
    if kind == "regular":
        return g_out * mask / (1.0 - rate), None
    return g_out * mask, g_out * ~mask


def _add(into: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    if into is None:
        return g
    into += g
    return into


def _backward_update(
    rec: StepRecord,
    role: str,
    g_out: np.ndarray,
    model: GrnnModel,
    acc: GradientAccumulator,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Backward through one endpoint update: its state dropout, then its GRU
    application, whose parameter gradients go into acc.

    Returns the gradients onto the own pre-update state (through the GRU,
    then the recurrent-mix passthrough or None) and onto the counterparty's.
    """
    cache = getattr(rec, "cache_" + role)
    if cache is None:
        raise StructuralError("gradient reached an update whose GRU cache was not kept")
    g_new, g_pass = _dropout_backward(
        g_out, getattr(rec, "drop_mask_" + role), rec.drop_kind, rec.drop_rate
    )
    _, gh_prev, gx_in = gru_backward(model.gru, cache, g_new, acc)
    return gh_prev, g_pass, gx_in[: model.m]


def _backward_records(
    records: list[StepRecord],
    model: GrnnModel,
    acc: GradientAccumulator,
    truncate: bool,
) -> None:
    """Reverse sweep over one contiguous record span (a batch, or the whole
    tape when called with truncate=False)."""
    m = model.m
    slot_grads: dict[tuple[int, str], np.ndarray] = {}  # produced-state grads
    for rec in reversed(records):
        g_pre = {"src": None, "dst": None}  # grads w.r.t. the pre-update states
        g_extra = None

        # prediction path
        if rec.pred_cache is not None:
            _, gx = mlp_backward(model.mlp, rec.pred_cache, rec.grad_logit_pred, acc, "mlp.")
            g_pre["src"] = gx[:m].copy()
            g_pre["dst"] = gx[m : 2 * m].copy()
        if rec.neg_cache is not None:
            _, gx = mlp_backward(model.mlp, rec.neg_cache, rec.grad_logit_neg, acc, "mlp.")
            g_pre["src"] = _add(g_pre["src"], gx[:m])
            g_extra = gx[m : 2 * m].copy()

        # own state updates (later records have finished adding to their slots)
        for role, other in (("src", "dst"), ("dst", "src")):
            g_out = slot_grads.pop((id(rec), role), None)
            if g_out is None:
                continue
            gh_prev, g_pass, g_other = _backward_update(rec, role, g_out, model, acc)
            g_pre[role] = _add(g_pre[role], gh_prev)
            if g_pass is not None:
                g_pre[role] = _add(g_pre[role], g_pass)
            g_pre[other] = _add(g_pre[other], g_other)

        # route gradients on consumed states to their producers
        for slot, g in (
            (rec.src_slot, g_pre["src"]), (rec.dst_slot, g_pre["dst"]), (rec.extra_slot, g_extra)
        ):
            if slot is None or g is None:
                continue  # epoch-initial state (constant) or no gradient
            prod, role = slot
            if not truncate or prod.batch_index == rec.batch_index:
                key = (id(prod), role)
                if key in slot_grads:
                    slot_grads[key] += g
                else:
                    slot_grads[key] = g
            else:
                # cross-boundary one-hop tail: the producing update adds its
                # parameter gradients, but its state inputs are constants
                _backward_update(prod, role, g, model, acc)


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
            _backward_records(records, model, acc, truncate=True)
            _count_producers(records, live)
            peak_live = max(peak_live, len(records) + len(live))
        else:
            tape.extend(records)
    if not truncate:
        _backward_records(tape, model, acc, truncate=False)
        peak_live = len(tape)
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
