"""Epoch forward, full and truncated BPTT, and the training loop.

Forward: one driver, _forward, runs every unit of work. A parallel batch is
one unit, one dependency level read from the batch-start snapshot. A run of
sequential batches is one unit, forwarded as its t-batch levels (JODIE's,
with each event's negative counted as touched). Each batch's rng draws are
made first, in the order per-batch processing makes them, and one
mlp_forward call scores the unit's heads, each row with the bits it would
get alone. So a unit leaves the tape, the store and the losses per-event
processing would leave, bit for bit. Only f_bptt training's sequential
units still run and score event by event; advance_states runs run_batch.

train_epoch forwards the epoch once in both modes, and takes one optimizer
step at its end, so no forward value depends on where truncation cuts.

Full backward (f_bptt) keeps the whole epoch on one dynamics.Tape and
sweeps it once, exactly, in reverse after the last batch: per-event loss
gradients flow through the prediction head and, via the tape rows that
produced the states each event read, back across every batch boundary to
the epoch-initial states.

Truncated backward (t_bptt) forwards a window of batches, closed by the
batch that brings it to WINDOW_UPDATES updates, sweeps it once and releases
it, keeping one producing row per node. Within a batch gradients flow
freely; a gradient that reaches a state produced in an *earlier* batch
still enters the single GRU update that produced it (so the recurrent cell
keeps a one-hop learning signal, as in standard lazy-update training), but
that update's own state inputs are treated as constants and the chain stops
there. Per-parameter gradients from all batches are summed.

A sweep (_backward_records) walks its events by dependency level, highest
first, as JODIE's t-batches walk them forward, and within a level by batch,
then descending event index, so each level's heads and updates run as the
stacked rows of a few kernel calls, each row with the bits it would get
alone. A batch of one level (a parallel batch, or a sequential batch of one
event) stages the same rows in the same order whatever its window. f_bptt
has one batch on its tape, so its order (level, event index) is a property
of the dataflow graph, not of the batching, and the f_bptt gradient has the
same bits under every batching strategy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .accumulator import TILE, GradientAccumulator
from .adamw import AdamwState, adamw_step
from .batching import make_batches_fixed, make_batches_tbatch, tbatch_levels
from .dropout import check_rate
from .dynamics import StateDropout, Tape, run_batch, run_levels
from .errors import ConfigError, NumericalError
from .events import Batch, Event, NodeStateStore
from .gru import gru_backward, stable_sigmoid
from .mlp import MlpCache, mlp_backward, mlp_forward, mlp_hidden
from .model import GrnnModel
from .rng import Rng

# a truncated-training window closes after the batch that brings it to this
# many updates
WINDOW_UPDATES = TILE

# ---------------------------------------------------------------------------
# losses


def loss_mse(y_hat: float, y: float) -> tuple[float, float]:
    """Squared error and its gradient w.r.t. y_hat."""
    diff = y_hat - y
    return diff * diff, 2.0 * diff


def loss_bce(logit: float, label: float) -> tuple[float, float]:
    """Binary cross-entropy in stable logit form; gradient is sigmoid - label."""
    e = np.exp(-abs(logit))  # stable_sigmoid's arithmetic, on one scalar
    grad = float((1.0 if logit >= 0 else e) / (1.0 + e)) - label
    return _bce_value(logit, label), grad


def _bce_value(logit: float, label: float) -> float:
    return max(logit, 0.0) - logit * label + math.log1p(math.exp(-abs(logit)))


def _head_losses(out: np.ndarray, labels: list[float], task: str) -> tuple[list, np.ndarray]:
    """Stacked heads' loss values, in math (numpy's log1p(exp(.)) differs),
    and gradients, (events, heads); each has loss_mse's or loss_bce's bits."""
    if task == "regression":
        with np.errstate(over="ignore"):  # inf, as in loss_mse; the caller names the event
            diff = out - labels
            return (diff * diff).tolist(), 2.0 * diff[:, None]
    return list(map(_bce_value, out.tolist(), labels)), (stable_sigmoid(out) - labels).reshape(-1, 2)


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
    tape: Tape | None


def sample_negatives(universe: np.ndarray | None, rng: Rng | None, count: int) -> list[int]:
    """count negative destinations, each uniform over the universe (it may be
    the true one), from one block of rng draws."""
    if universe is None or rng is None:
        raise ConfigError("link_ranking forward needs a negative universe and rng")
    return universe[rng.randranges(len(universe), count)].tolist()


def _link_heads(pre: np.ndarray) -> np.ndarray:
    """Link-ranking head rows from src, dst and extra states pre (n, 3, m):
    a positive (src, dst) and a negative (src, extra) row per event."""
    return np.concatenate((pre[:, [0, 0]], pre[:, 1:]), axis=2).reshape(-1, 2 * pre.shape[2])


def _predict_and_score(
    events: list[Event],
    pre: np.ndarray,
    tape: Tape | None,
    model: GrnnModel,
    task: str,
    mask: np.ndarray | None,
    scale: float,
) -> list[float]:
    """Score events, the tape's next ones if there is a tape, from their
    pre-update states with one mlp_forward call: one regression head per
    event, or a positive (src, dst) and a negative (src, extra) head for
    link ranking, as the stacked rows of the call. A lone regression head is
    a vector. mask holds the heads' hidden dropout masks, one row per head,
    and scale their scale. The heads' inputs, loss gradients and dropout
    masks go onto the tape. Returns each event's loss, checked in event
    order."""
    n = len(events)
    if task == "regression":
        if n == 1:
            x = np.concatenate((pre[0, 0], pre[0, 1], events[0].features))
        else:
            x = np.concatenate((pre[:, 0], pre[:, 1], [ev.features for ev in events]), axis=1)
        inputs, labels = x, [ev.y for ev in events]
    else:  # link_ranking: positive edge vs one sampled negative
        inputs, labels = pre.reshape(n, -1), [1.0, 0.0] * n
        x = _link_heads(pre)
    if mask is not None:
        mask = mask.reshape(x.shape[:-1] + (-1,))
    out, cache = mlp_forward(model.mlp, x, mask=mask, scale=scale)
    if x.ndim == 1:  # a lone regression head keeps the scalar loss
        value, grads = loss_mse(out, labels[0])
        values = [value]
    else:
        values, grads = _head_losses(out, labels, task)
    heads, losses = len(values) // n, []
    for e, ev in enumerate(events):
        loss = 0.0
        for value in values[e * heads : (e + 1) * heads]:
            loss += value
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite loss at event {ev.index}")
        losses.append(loss)
    if tape is not None:
        tape.score(n, inputs, grads, cache.drop_mask, cache.drop_scale)
    return losses


def _forward(
    batches: list[Batch],
    model: GrnnModel,
    store: NodeStateStore,
    tape: Tape | None,
    task: str,
    training: bool = False,
    rng: Rng | None = None,
    neg_universe: np.ndarray | None = None,
    state_dropout: StateDropout | None = None,
    mlp_dropout: float = 0.0,
    dropout_rng: Rng | None = None,
    per_event: bool = False,
) -> Iterator[float]:
    """Forward batches of one strategy onto the tape (if any), one unit at a
    time, and yield each batch's summed loss. A run of sequential batches is
    one unit, forwarded as its dependency levels (dynamics.run_levels); a
    parallel batch is a unit of its own, one level through run_batch, so
    its heads' arrays never outgrow a batch. Each batch of a unit first
    draws, in its order, its negatives, its state-dropout masks and,
    training, its head-dropout masks, as plain arrays: no other forward
    code draws. The updates take their keep masks by update row, and one
    mlp_forward call scores all the unit's heads, in event order, with one
    mask row per head. per_event (F-BPTT training) is the pinned path: a
    sequential unit runs event by event through run_batch, and each event
    is scored by its own call, because the tracer self-test pins those
    kernel counts. ROADMAP item 2b (F-BPTT training's forward as levels)
    deletes it."""
    if training:
        check_rate(mlp_dropout, "mlp dropout")  # before any draw
    sd = state_dropout if state_dropout is not None and state_dropout.rate != 0.0 else None
    head_dropout = training and mlp_dropout > 0.0
    scale = 1.0 / (1.0 - mlp_dropout) if head_dropout else 1.0
    link = task == "link_ranking"
    heads = 2 if link else 1
    sequential = bool(batches) and batches[0].strategy == "sequential"
    per_event = per_event and sequential
    for unit in [batches] if sequential else [[batch] for batch in batches]:
        events: list[Event] = []
        extras: list[int] | None = [] if link else None
        keep, masks = [], []
        for batch in unit:
            k = len(batch.events)
            events += batch.events
            if link:
                extras += sample_negatives(neg_universe, rng, k)
            if sd is not None:
                keep.append(sd.rng.keep_mask(batch.updates * model.m, sd.rate))
            if head_dropout:
                masks.append(dropout_rng.keep_mask(heads * k * model.mlp.hidden, mlp_dropout))
        keep = None if sd is None else np.concatenate(keep).reshape(-1, model.m)
        mask = np.concatenate(masks).reshape(-1, model.mlp.hidden) if masks else None
        if sequential and not per_event:
            if link:  # an event also orders after the last one to write its negative
                levels = tbatch_levels((ev.src, ev.dst, extra) for ev, extra in zip(events, extras))
            else:
                levels = tbatch_levels((ev.src, ev.dst) for ev in events)
            pre = run_levels(store, events, levels, model, tape, sd, extras, keep)
        else:  # a parallel batch (one level), or the pinned per-event unit
            batch = unit[0] if len(unit) == 1 else Batch(events, "sequential")
            pre = run_batch(store, batch, model, tape, sd, extras, keep)
        if per_event:
            losses = [loss for e, ev in enumerate(events)
                      for loss in _predict_and_score(
                          [ev], pre[e : e + 1], tape, model, task,
                          None if mask is None else mask[e * heads : (e + 1) * heads], scale)]
        else:
            losses = _predict_and_score(events, pre, tape, model, task, mask, scale)
        losses = iter(losses)
        for batch in unit:  # each summed in event order
            batch_loss = 0.0
            for _ in batch.events:
                batch_loss += next(losses)
            yield batch_loss


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
    """Process all batches through _forward, returning the summed loss and
    the tape. State dropout and head dropout only when training."""
    batches = build_batches(events, batching)
    tape = None
    if record:
        tape = Tape(model, store.num_nodes, len(events), sum(b.updates for b in batches))
    total = 0.0
    for batch_loss in _forward(
        batches, model, store, tape,
        task=task or model.task, training=training,
        rng=rng, neg_universe=neg_universe,
        state_dropout=state_dropout if training else None,
        mlp_dropout=mlp_dropout, dropout_rng=dropout_rng,
    ):
        total += batch_loss
    return EpochForward(total_loss=total, tape=tape)


def advance_states(
    events: list[Event],
    model: GrnnModel,
    store: NodeStateStore,
    batching: BatchingConfig,
) -> None:
    """Run the state dynamics only (no predictions, no tape); used to warm
    stores before evaluation. Every batch runs through run_batch, so a
    sequential warm-up runs event by event."""
    for batch in build_batches(events, batching):
        run_batch(store, batch, model)


# ---------------------------------------------------------------------------
# backward


def _gru_rows(
    tape: Tape, rows, g: np.ndarray, model: GrnnModel, acc: GradientAccumulator,
    state_dropout: StateDropout | None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Backward through the state dropout, then one gru_backward call (into
    acc) for the tape's rows (an index array or a slice) with output
    gradients g. Returns, one row per update, the gradients onto the own
    pre-update state through the GRU and through the recurrent-mix
    passthrough (None without it), and onto the counterparty's state."""
    g_pass = None
    if state_dropout is not None and state_dropout.rate != 0.0:
        keep = tape.keep[rows]
        if state_dropout.kind == "regular":
            g = g * keep / (1.0 - state_dropout.rate)
        else:  # dropped elements passed the previous state through
            g, g_pass = g * keep, g * ~keep
    _, gh_prev, gx_in = gru_backward(model.gru, tape.gru_cache(rows), g, acc)
    return gh_prev, g_pass, gx_in[:, : model.m]


class _Tails:
    """The pending one-hop tails of t_bptt: up to TILE updates of earlier
    batches that gradients reached, copied off the tape as one block per
    sweep with the sum of one batch's gradients on each, and run together
    once TILE are waiting. Their state inputs are constants."""

    def __init__(self, model: GrnnModel, acc: GradientAccumulator,
                 state_dropout: StateDropout | None):
        self.rows = Tape(model, 0, 0, TILE)
        self.g = np.empty((TILE, model.m))
        self.model, self.acc, self.state_dropout = model, acc, state_dropout

    def add(self, tape: Tape, rows: list[int], g: list[np.ndarray]) -> None:
        while rows:
            k, j = self.rows.n_rows, min(TILE, self.rows.n_rows + len(rows))
            self.rows.records[k:j] = tape.records.take(rows[: j - k])
            self.g[k:j] = g[: j - k]
            rows, g, self.rows.n_rows = rows[j - k :], g[j - k :], j
            if j == TILE:
                self.run()

    def run(self) -> None:
        k, self.rows.n_rows = self.rows.n_rows, 0
        if k:
            _gru_rows(self.rows, slice(0, k), self.g[:k], self.model, self.acc,
                      self.state_dropout)


def _backward_records(
    tape: Tape,
    model: GrnnModel,
    acc: GradientAccumulator,
    tails: _Tails,
    state_dropout: StateDropout | None,
) -> None:
    """Reverse sweep over the tape's events and rows above its base (a window
    of batches, or the whole epoch), one dependency level at a time.

    An event's reads are cut at the first row of its batch (tape.starts):
    above the cut they chain, below it (an earlier batch's row) they get a
    one-hop tail, and -1 (an epoch-initial state) is a constant. An event's
    level is 1 plus the highest level among the events that produced its
    reads above the cut, so when a level runs, the gradients on every state
    it produced are complete. Per level, by batch, then descending event
    index: the prediction heads in one call (each event's in order), rebuilt
    from head_in with one mlp_hidden call recomputing the forward's bits,
    the updates in chunks of at most TILE rows, then the state gradients go
    to the rows that produced the states. A batch's gradients on a row
    below its cut are summed, and after the sweep each (batch, row) gets one
    tail through `tails`, batch by batch in first-reach order: the tail's
    state inputs are constants, so it is linear in its gradient and one
    tail of the sum stands for one tail per read.
    """
    m, base = model.m, tape.base
    n = tape.n_events
    link = tape.head_grad.shape[1] == 2
    reads, writes, index = tape.reads[:n].tolist(), tape.writes[:n].tolist(), tape.index[:n].tolist()
    cuts: list[int] = []  # per event, the first row of its batch
    for (e0, cut), (e1, _) in zip(tape.starts, tape.starts[1:] + [(n, 0)]):
        cuts += [cut] * (e1 - e0)
    row_level = [0] * (tape.n_rows - base)
    by_level: list[list[int]] = []
    for e in range(n):
        lv, cut = 0, cuts[e]
        for row in reads[e]:
            if row >= cut:
                lv = max(lv, row_level[row - base] + 1)
        for row in writes[e]:
            if row >= 0:
                row_level[row - base] = lv
        if lv == len(by_level):
            by_level.append([])
        by_level[lv].append(e)

    # row, or (cut, row) below the cut -> gradient on the state it produced
    produced: dict[int | tuple[int, int], np.ndarray] = {}
    for evs in reversed(by_level):
        evs.sort(key=index.__getitem__, reverse=True)
        evs.sort(key=cuts.__getitem__)  # stable: descending index within a batch
        # the level's heads in one call; per event, the gradients onto its
        # pre-update src, dst and (link ranking) extra states, as views
        x = tape.head_in[evs]
        grad = tape.head_grad[evs].ravel()
        mask = tape.head_mask
        mask = None if mask is None else mask[evs].reshape(len(grad), -1)
        if link:
            x = _link_heads(x.reshape(len(evs), 3, m))
        a1 = mlp_hidden(model.mlp, x, mask, tape.drop_scale)
        _, gx = mlp_backward(model.mlp, MlpCache(x, a1, mask, tape.drop_scale), grad, acc)
        if link:  # two heads each: (src, dst) and (src, extra), side by side
            gx = gx.reshape(len(evs), -1)
            gx[:, :m] += gx[:, 2 * m : 3 * m]
            grads = [[g[:m], g[m : 2 * m], g[3 * m :]] for g in gx]
        else:
            grads = [[g[:m], g[m : 2 * m]] for g in gx]

        # the level's updates; later levels have finished adding to their rows
        updates = [(pos, role, row) for pos, e in enumerate(evs)
                   for role, row in enumerate(writes[e]) if row in produced]
        for lo in range(0, len(updates), TILE):
            chunk = updates[lo : lo + TILE]
            rows = np.array([row for _, _, row in chunk])
            g_out = np.array([produced.pop(row) for _, _, row in chunk])
            gh_prev, g_pass, g_other = _gru_rows(tape, rows, g_out, model, acc, state_dropout)
            for j, (pos, role, _) in enumerate(chunk):
                g = grads[pos]
                g[role] += gh_prev[j]
                if g_pass is not None:
                    g[role] += g_pass[j]
                g[1 - role] += g_other[j]

        # route gradients on consumed states to the rows that produced them
        for e, g in zip(evs, grads):
            cut = cuts[e]
            for row, g_in in zip(reads[e], g):
                if row < 0:
                    continue  # an epoch-initial state: a constant
                key = row if row >= cut else (cut, row)
                if key in produced:
                    produced[key] += g_in
                else:
                    produced[key] = g_in
    # the levels popped every row above the cuts; what is left are earlier
    # batches' rows, batch by batch (a stable sort) in first-reach order
    keys = sorted(produced, key=lambda key: key[0])
    tails.add(tape, [row for _, row in keys], [produced[key] for key in keys])


# ---------------------------------------------------------------------------
# training


MODES = ("f_bptt", "t_bptt")


def _windows(batches: list[Batch]) -> Iterator[list[Batch]]:
    """Truncated training's windows: consecutive batches, each closed after
    the batch that brings it to WINDOW_UPDATES updates."""
    window, updates = [], 0
    for batch in batches:
        window.append(batch)
        updates += batch.updates
        if updates >= WINDOW_UPDATES:
            yield window
            window, updates = [], 0
    if window:
        yield window


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
    batches = build_batches(events, batching)
    if truncate:  # one row per node, for the carried producers, plus the largest window
        windows = list(_windows(batches))
        tape = Tape(model, store.num_nodes,
                    max((sum(len(b.events) for b in w) for w in windows), default=0),
                    max((sum(b.updates for b in w) for w in windows), default=0),
                    base=store.num_nodes)
    else:  # the epoch is one window
        windows = [batches]
        tape = Tape(model, store.num_nodes, len(events), sum(b.updates for b in batches))
    forward = dict(task=task or model.task, training=True, rng=rng, neg_universe=neg_universe,
                   state_dropout=state_dropout, mlp_dropout=mlp_dropout, dropout_rng=dropout_rng,
                   per_event=not truncate)
    tails = _Tails(model, acc, state_dropout)
    total_loss = 0.0
    for window in windows:
        for batch_loss in _forward(window, model, store, tape, **forward):
            total_loss += batch_loss
        if truncate:
            e, row = tape.starts[0]
            for batch in window[:-1]:  # the next batch's reads are cut at its first row
                e, row = e + len(batch.events), row + batch.updates
                tape.starts.append((e, row))
        # only the nodes' producing rows (one GRU cache each) outlive a
        # truncated window, for the one-hop tails
        _backward_records(tape, model, acc, tails, state_dropout)
        if truncate:
            tape.release()
    tails.run()
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
        "peak_live_records": len(tape.records),  # the update rows the tape pins
    }
