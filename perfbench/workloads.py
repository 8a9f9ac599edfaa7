"""The three workloads, driven through grnnlab's public API.

Each workload builds a fresh ``Run`` per phase (model, optimizer, data and
rng streams, all from the workload seed) and offers two timed operations:
one training epoch in a given mode, and one validation pass. ``span`` is a
factory of context managers: the tracer's in a traced epoch, a no-op
otherwise. Correctness checks live here too, but run outside the timed
region (see ``check_train`` and ``check_validation``).

Why these workloads:
  synth-h32     the paper's sweep cell at its common hidden size; the epoch
                is all per-event interpreter overhead in gru, engine and
                dynamics. F-BPTT is one epoch-spanning sequential batch (63
                t-batches of parallelism a batched engine could use); T-BPTT
                is batches of one event, which batching cannot help.
  synth-h128    the same protocol at the sweep's largest hidden size, so a
                gain that only removes Python overhead shrinks here; model
                init dominates set-up.
  linkrank-h64  the link-ranking trial: fixed_parallel batches of 200, MLP
                and recurrent-state dropout (per-element rng draws), plus the
                tape-free validation pass that warms a store and ranks 750
                edges against 60 candidates.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from grnnlab import engine, evalbench, oracles
from grnnlab.adamw import AdamwState
from grnnlab.dynamics import StateDropout
from grnnlab.engine import BatchingConfig
from grnnlab.events import NodeStateStore
from grnnlab.model import init_model
from grnnlab.rng import Rng
from grnnlab.synthtask import SyntheticConfig, generate_epoch

REL_TOL = 1e-9


def no_span(_name: str):
    return nullcontext()


@dataclass
class Run:
    """Everything one phase trains and validates with."""

    model: object
    optimizer: AdamwState
    store: NodeStateStore
    extra: dict
    train_kwargs: dict = field(default_factory=dict)  # extra train_epoch arguments


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


class Synth:
    """Synth sweep cell: N=100, 1000 fresh edges per epoch, M=4, AdamW
    (lr 1e-3, wd 1e-4), one step per epoch, run as the synth command does."""

    validation_in_epoch = False

    def __init__(self, hidden: int, edges: int = 1000, num_nodes: int = 100):
        self.hidden = hidden
        self.num_nodes = num_nodes
        self.config = SyntheticConfig(memory=4, num_nodes=num_nodes, edges_per_epoch=edges)

    @staticmethod
    def batching(mode: str) -> BatchingConfig:
        return BatchingConfig("sequential", None if mode == "f_bptt" else 1)

    def setup(self, seed: int, out_dir: str, span=no_span) -> Run:
        root = Rng(seed)
        with span("model.init"):
            model = init_model(root.substream("init"), self.hidden, 1, "regression")
        with span("synthtask.generate"):
            val_events = generate_epoch(self.config, root.substream("eval"))
        return Run(
            model=model,
            optimizer=AdamwState(lr=1e-3, weight_decay=1e-4),
            store=NodeStateStore.zeros(self.num_nodes, self.hidden),
            extra={"data_rng": root.substream("data"), "val_events": val_events},
        )

    def train(self, run: Run, mode: str, span=no_span):
        """generate_epoch + train_epoch; returns (events, stats)."""
        with span("synthtask.generate"):
            events = generate_epoch(self.config, run.extra["data_rng"])
        with span("engine.train_epoch"):
            stats = engine.train_epoch(
                events, run.model, run.optimizer, mode, self.batching(mode), store=run.store
            )
        return events, stats

    def validate(self, run: Run, span=no_span) -> dict:
        """Tape-free forward over a held-out epoch (the synth analogue of the
        link-ranking validation pass)."""
        events = run.extra["val_events"]
        store = NodeStateStore.zeros(self.num_nodes, self.hidden)
        with span("engine.forward_epoch"):
            fw = engine.forward_epoch(
                events, run.model, store, BatchingConfig("sequential", None), record=False
            )
        return {"metric": fw.total_loss / len(events)}

    def check_train(self, events, stats, before, mode: str) -> list[str]:
        """before: a copy of the model taken before this epoch, or None to
        skip the oracle comparison."""
        problems = _finite_stats(stats)
        if before is not None:
            batch_size = self.batching(mode).batch_size
            ref = float(oracles.epoch_loss_reference(
                before.named_params(), events, self.num_nodes, self.hidden,
                "sequential", batch_size,
            ))
            if not rel_close(stats["total_loss"], ref):
                problems.append(
                    f"{mode} epoch loss {stats['total_loss']!r} != oracle reference {ref!r}"
                )
        return problems

    def check_validation(self, run: Run, result: dict) -> list[str]:
        if not math.isfinite(result["metric"]):
            return [f"validation MSE {result['metric']!r} is not finite"]
        return []

    def tape_forward(self, run: Run):
        """The forward pass train_epoch makes in F-BPTT, with its tape kept;
        returns a callable so the caller can bracket it with tracemalloc."""
        events = generate_epoch(self.config, run.extra["data_rng"])
        store = NodeStateStore.zeros(self.num_nodes, self.hidden)
        return lambda: engine.forward_epoch(
            events, run.model, store, self.batching("f_bptt"), record=True, training=True
        )


class Linkrank:
    """Link-ranking trial on a 5000-edge synthetic stream (200 users, 60
    items) written to CSV and read back; hidden 64, fixed_parallel batches of
    200, the first trial of random_search(SearchSpace(), seed). Mirrors the
    per-epoch body of evalbench.run_trial without early stopping."""

    num_events, num_users, num_items = 5000, 200, 60
    hidden = 64
    batching = BatchingConfig("fixed_parallel", 200)
    validation_in_epoch = True

    def setup(self, seed: int, out_dir: str, span=no_span) -> Run:
        path = os.path.join(out_dir, "linkstream.csv")
        with span("evalbench.write_stream"):
            evalbench.write_synthetic_linkstream(
                path, self.num_events, self.num_users, self.num_items, seed=seed
            )
        with span("evalbench.ingest"):
            dataset = evalbench.load_jodie_csv(path, name="linkstream")
        train_events, val_events, _ = evalbench.chrono_split(dataset.events)
        trial = evalbench.random_search(evalbench.SearchSpace(), trials=1, seed=seed)[0]
        root = Rng(seed)
        with span("model.init"):
            model = init_model(
                root.substream("init"), self.hidden, dataset.feat_dim, "link_ranking"
            )
        dropout_rng = root.substream("dropout")
        state_dropout = (
            StateDropout(trial.state_dropout, trial.state_dropout_type, dropout_rng)
            if trial.state_dropout > 0
            else None
        )
        return Run(
            model=model,
            optimizer=AdamwState(lr=trial.learning_rate, weight_decay=trial.weight_decay),
            store=NodeStateStore.zeros(dataset.num_nodes, self.hidden),
            train_kwargs=dict(
                task="link_ranking",
                rng=root.substream("negatives"),
                neg_universe=dataset.destinations,
                state_dropout=state_dropout,
                mlp_dropout=trial.mlp_dropout,
                dropout_rng=dropout_rng,
            ),
            extra={"dataset": dataset, "train": train_events, "val": val_events},
        )

    def train(self, run: Run, mode: str, span=no_span):
        with span("engine.train_epoch"):
            stats = engine.train_epoch(
                run.extra["train"], run.model, run.optimizer, mode, self.batching,
                store=run.store, reset_store=True, **run.train_kwargs,
            )
        return run.extra["train"], stats

    def validate(self, run: Run, span=no_span) -> dict:
        dataset = run.extra["dataset"]
        store = NodeStateStore.zeros(dataset.num_nodes, self.hidden)
        evalbench.advance_states(run.extra["train"], run.model, store, self.batching)
        with span("evalbench.evaluate"):
            ranks = evalbench.evaluate_ranking(
                run.model, store, run.extra["val"], dataset.destinations, self.batching
            )
        metrics = evalbench.compute_metrics(ranks, k=10)
        return {"metric": metrics["mrr"], "recall_at_10": metrics["recall_at_10"],
                "ranks": ranks}

    def check_train(self, events, stats, before, mode: str) -> list[str]:
        return _finite_stats(stats)

    def check_validation(self, run: Run, result: dict) -> list[str]:
        universe = run.extra["dataset"].num_destinations
        ranks = np.asarray(result["ranks"])
        problems = []
        if len(ranks) != len(run.extra["val"]):
            problems.append(f"{len(ranks)} ranks for {len(run.extra['val'])} edges")
        if ranks.size and (ranks.min() < 1 or ranks.max() > universe):
            problems.append(f"rank outside [1, {universe}]")
        for key in ("metric", "recall_at_10"):
            if not 0.0 <= result[key] <= 1.0:
                problems.append(f"validation {key} {result[key]!r} outside [0, 1]")
        return problems

    def tape_forward(self, run: Run):
        store = NodeStateStore.zeros(run.extra["dataset"].num_nodes, self.hidden)
        return lambda: engine.forward_epoch(
            run.extra["train"], run.model, store, self.batching,
            record=True, training=True, **run.train_kwargs,
        )


def _finite_stats(stats: dict) -> list[str]:
    return [
        f"{key} {stats[key]!r} is not finite"
        for key in ("total_loss", "mean_loss", "grad_norm")
        if not math.isfinite(stats[key])
    ]


WORKLOADS = {
    "synth-h32": lambda: Synth(hidden=32),
    "synth-h128": lambda: Synth(hidden=128),
    "linkrank-h64": Linkrank,
}
