"""Benchmark pipeline for dynamic-graph link ranking.

Covers CSV ingestion (user_id, item_id, timestamp, state_label, float
features), chronological splitting, uniform negative sampling, exhaustive
destination ranking with pessimistic tie-breaking, MRR / Recall@k,
random hyperparameter search, and early stopping on stagnant metrics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .adamw import AdamwState
from .dynamics import StateDropout
from .engine import BatchingConfig, advance_states, build_batches, train_epoch
from .dynamics import run_batch, Slot
from .errors import ConfigError, DataError, IngestionError, ParameterError
from .events import Event, NodeStateStore
from .mlp import mlp_score_batch
from .model import GrnnModel, init_model
from .rng import Rng


@dataclass
class Dataset:
    """Time-ordered events with bipartite ids remapped to one contiguous
    node space: sources first, then destinations."""

    events: list[Event]
    num_nodes: int
    num_sources: int
    feat_dim: int
    destinations: np.ndarray  # internal ids of every destination seen anywhere
    source_map: dict[str, int]
    dest_map: dict[str, int]
    name: str = ""

    @property
    def num_destinations(self) -> int:
        return len(self.destinations)


def load_jodie_csv(path: str, max_events: int | None = None, name: str = "") -> Dataset:
    """Ingest the published interaction-stream schema.

    Expected header then rows: user_id, item_id, timestamp, state_label,
    comma-separated float features. state_label is ignored (the tasks here
    use only edges and features).
    """
    source_map: dict[str, int] = {}
    dest_keys: list[str] = []
    dest_seen: dict[str, int] = {}
    rows: list[tuple[int, int, float, list[float]]] = []
    feat_dim = None
    prev_t = -math.inf
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if line_no == 1:
                continue  # header
            if max_events is not None and len(rows) >= max_events:
                break
            if len(row) < 3:
                raise IngestionError(line_no, f"expected at least 3 fields, got {len(row)}")
            user, item = row[0], row[1]
            try:
                t = float(row[2])
                values = [float(v) for v in row[4:]]
            except ValueError as exc:
                raise IngestionError(line_no, f"non-numeric field ({exc})") from None
            if not (math.isfinite(t) and all(math.isfinite(v) for v in values)):
                raise IngestionError(line_no, "non-finite timestamp or feature")
            if t < prev_t:
                raise DataError(f"line {line_no}: timestamp decreases ({t} < {prev_t})")
            prev_t = t
            if feat_dim is None:
                feat_dim = len(values)
            elif len(values) != feat_dim:
                raise IngestionError(
                    line_no, f"feature dim {len(values)} != {feat_dim} of earlier rows"
                )
            if user not in source_map:
                source_map[user] = len(source_map)
            if item not in dest_seen:
                dest_seen[item] = len(dest_keys)
                dest_keys.append(item)
            rows.append((source_map[user], dest_seen[item], t, values))

    num_sources = len(source_map)
    dest_map = {key: num_sources + i for i, key in enumerate(dest_keys)}
    events = [
        Event(
            index=k,
            src=src,
            dst=num_sources + dst_local,
            time=t,
            features=np.asarray(feats, dtype=np.float64),
        )
        for k, (src, dst_local, t, feats) in enumerate(rows)
    ]
    return Dataset(
        events=events,
        num_nodes=num_sources + len(dest_keys),
        num_sources=num_sources,
        feat_dim=feat_dim or 0,
        destinations=np.arange(num_sources, num_sources + len(dest_keys)),
        source_map=source_map,
        dest_map=dest_map,
        name=name,
    )


def chrono_split(
    events: list[Event], train_frac: float = 0.70, val_frac: float = 0.15
) -> tuple[list[Event], list[Event], list[Event]]:
    """Contiguous prefix / middle / suffix by event index, floor-then-remainder."""
    if train_frac <= 0 or val_frac <= 0 or train_frac + val_frac >= 1:
        raise ConfigError(f"bad split fractions ({train_frac}, {val_frac})")
    n = len(events)
    n_train = int(n * train_frac)
    n_val = int(n * val_frac)
    if n_train == 0 or n_val == 0 or n - n_train - n_val == 0:
        raise ConfigError(f"split of {n} events leaves an empty part")
    return (
        events[:n_train],
        events[n_train : n_train + n_val],
        events[n_train + n_val :],
    )


def sample_negative(edge: Event, dataset: Dataset, rng: Rng) -> int:
    """Uniform over the full destination universe (may hit the true one)."""
    if dataset.num_destinations == 0:
        raise DataError("empty destination universe")
    return int(dataset.destinations[rng.randrange(dataset.num_destinations)])


# ---------------------------------------------------------------------------
# ranking and metrics


def rank_scores(scores: np.ndarray, true_pos: int) -> int:
    """Rank of the true candidate under pessimistic tie-breaking: every
    strictly better candidate and every tied other candidate precedes it."""
    s_true = scores[true_pos]
    better = int((scores > s_true).sum())
    tied_others = int((scores == s_true).sum()) - 1
    return 1 + better + tied_others


def rank_true_destination(
    model: GrnnModel,
    store: NodeStateStore,
    edge: Event,
    destination_universe: np.ndarray,
) -> int:
    """Score every candidate destination against the edge's source state."""
    matches = np.nonzero(destination_universe == edge.dst)[0]
    if len(matches) == 0:
        raise DataError(f"true destination {edge.dst} outside the universe")
    h_src = store.states[edge.src]
    cand = store.states[destination_universe]
    xs = np.hstack((np.broadcast_to(h_src, cand.shape), cand))
    scores = mlp_score_batch(model.mlp, xs)
    return rank_scores(scores, int(matches[0]))


def compute_metrics(ranks: list[int], k: int = 10) -> dict:
    if not ranks:
        raise ParameterError("compute_metrics: empty rank list")
    arr = np.asarray(ranks, dtype=np.float64)
    if (arr < 1).any():
        raise ParameterError("ranks must be >= 1")
    return {
        "mrr": float((1.0 / arr).mean()),
        f"recall_at_{k}": float((arr <= k).mean()),
    }


def random_ranker_mrr(universe_size: int) -> float:
    """Closed-form expected MRR of a uniformly random ranker: H(U)/U."""
    return sum(1.0 / r for r in range(1, universe_size + 1)) / universe_size


def evaluate_ranking(
    model: GrnnModel,
    store: NodeStateStore,
    events: list[Event],
    universe: np.ndarray,
    batching: BatchingConfig,
) -> list[int]:
    """Batched evaluation: every edge in a batch is ranked against the store
    as it stood at batch start, then the batch's updates are applied. A
    sequential stream is ranked one event per batch, so each edge sees every
    earlier update."""
    if batching.strategy == "sequential":
        batching = BatchingConfig("sequential", 1)
    producers: dict[int, Slot] = {}
    ranks: list[int] = []
    for batch in build_batches(events, batching):
        for ev in batch.events:
            ranks.append(rank_true_destination(model, store, ev, universe))
        run_batch(store, producers, batch, model)
    return ranks


# ---------------------------------------------------------------------------
# hyperparameter search


@dataclass
class SearchSpace:
    learning_rate: tuple[float, float] = (1e-3, 1e-2)  # log-uniform
    weight_decay: tuple[float, float] = (1e-5, 1.0)  # log-uniform
    mlp_dropout: tuple[float, float] = (0.0, 0.3)  # uniform
    state_dropout: tuple[float, float] = (0.0, 0.3)  # uniform
    state_dropout_types: tuple[str, ...] = ("regular", "recurrent")


@dataclass
class TrialConfig:
    learning_rate: float
    weight_decay: float
    mlp_dropout: float
    state_dropout: float
    state_dropout_type: str

    def to_dict(self) -> dict:
        return asdict(self)


def sample_trial(space: SearchSpace, rng: Rng) -> TrialConfig:
    return TrialConfig(
        learning_rate=rng.log_uniform(*space.learning_rate),
        weight_decay=rng.log_uniform(*space.weight_decay),
        mlp_dropout=rng.uniform(*space.mlp_dropout),
        state_dropout=rng.uniform(*space.state_dropout),
        state_dropout_type=space.state_dropout_types[
            rng.randrange(len(space.state_dropout_types))
        ],
    )


def random_search(space: SearchSpace, trials: int = 25, seed: int = 0) -> list[TrialConfig]:
    rng = Rng(seed).substream("search")
    return [sample_trial(space, rng) for _ in range(trials)]


def early_stop_check(history: list[dict], patience: int = 250) -> bool:
    """Stop when the best value of *each* tracked metric is >= patience
    epochs old; a single still-improving metric keeps the trial alive."""
    if len(history) <= patience:
        return False
    last = len(history) - 1
    for key in ("mrr", "recall"):
        values = [h[key] for h in history]
        best_epoch = int(np.argmax(values))  # first occurrence of the best
        if last - best_epoch < patience:
            return False
    return True


# ---------------------------------------------------------------------------
# trial runner


@dataclass
class TrialResult:
    mode: str
    seed: int
    trial_index: int
    trial: TrialConfig
    mrr: float
    recall_at_10: float
    epochs_run: int
    best_epoch: int
    best_val_mrr: float
    val_history: list[dict] = field(default_factory=list)


def _eval_split(
    model: GrnnModel,
    dataset: Dataset,
    warm_events: list[Event],
    eval_events: list[Event],
    batching: BatchingConfig,
) -> dict:
    store = NodeStateStore.zeros(dataset.num_nodes, model.m)
    advance_states(warm_events, model, store, batching)
    ranks = evaluate_ranking(model, store, eval_events, dataset.destinations, batching)
    return compute_metrics(ranks, k=10)


def run_trial(
    dataset: Dataset,
    trial: TrialConfig,
    mode: str,
    seed: int,
    hidden_size: int = 64,
    batch_size: int = 200,
    max_epochs: int = 1000,
    patience: int = 250,
    train_frac: float = 0.70,
    val_frac: float = 0.15,
    trial_index: int = 0,
    epoch_callback=None,
) -> TrialResult:
    """Train one configuration to early stopping; returns test metrics at the
    best-validation-MRR checkpoint (both metrics reported there)."""
    train_events, val_events, test_events = chrono_split(
        dataset.events, train_frac, val_frac
    )
    batching = BatchingConfig(strategy="fixed_parallel", batch_size=batch_size)
    root = Rng(seed)
    model = init_model(root.substream("init"), hidden_size, dataset.feat_dim, "link_ranking")
    optimizer = AdamwState(lr=trial.learning_rate, weight_decay=trial.weight_decay)
    neg_rng = root.substream("negatives")
    dropout_rng = root.substream("dropout")
    state_dropout = (
        StateDropout(rate=trial.state_dropout, kind=trial.state_dropout_type, rng=dropout_rng)
        if trial.state_dropout > 0
        else None
    )
    store = NodeStateStore.zeros(dataset.num_nodes, hidden_size)

    history: list[dict] = []
    best = {"mrr": -1.0, "epoch": -1, "model": None}
    epochs_run = 0
    for epoch in range(max_epochs):
        stats = train_epoch(
            train_events, model, optimizer, mode, batching,
            task="link_ranking",
            rng=neg_rng,
            neg_universe=dataset.destinations,
            state_dropout=state_dropout,
            mlp_dropout=trial.mlp_dropout,
            dropout_rng=dropout_rng,
            store=store,
            reset_store=True,
        )
        val_metrics = _eval_split(model, dataset, train_events, val_events, batching)
        history.append({"mrr": val_metrics["mrr"], "recall": val_metrics["recall_at_10"]})
        epochs_run = epoch + 1
        if epoch_callback is not None:
            epoch_callback(epoch, stats, val_metrics)
        if val_metrics["mrr"] > best["mrr"]:
            best = {"mrr": val_metrics["mrr"], "epoch": epoch, "model": model.copy()}
        if early_stop_check(history, patience):
            break

    final_model = best["model"] if best["model"] is not None else model
    test_metrics = _eval_split(
        final_model, dataset, train_events + val_events, test_events, batching
    )
    return TrialResult(
        mode=mode,
        seed=seed,
        trial_index=trial_index,
        trial=trial,
        mrr=test_metrics["mrr"],
        recall_at_10=test_metrics["recall_at_10"],
        epochs_run=epochs_run,
        best_epoch=best["epoch"],
        best_val_mrr=best["mrr"],
        val_history=history,
    )


# ---------------------------------------------------------------------------
# synthetic interaction stream (smoke runs without the real datasets)


def write_synthetic_linkstream(
    path: str,
    num_events: int = 5000,
    num_users: int = 200,
    num_items: int = 60,
    affinity: float = 0.8,
    feat_dim: int = 1,
    seed: int = 7,
) -> None:
    """Deterministic bipartite stream in the benchmark CSV schema.

    Each user mostly revisits a preferred item (plus a popularity-skewed
    remainder), so there is learnable structure for link ranking.
    """
    rng = Rng(seed).substream("data")
    preferred = [rng.randrange(num_items) for _ in range(num_users)]
    lines = ["user_id,item_id,timestamp,state_label,comma_separated_list_of_features"]
    for k in range(num_events):
        user = rng.randrange(num_users)
        if rng.bernoulli(affinity):
            item = preferred[user]
        else:
            # popularity skew: quadratic tilt toward low item ids
            item = min(rng.randrange(num_items), rng.randrange(num_items))
        feats = ",".join(repr(rng.standard_normal()) for _ in range(feat_dim))
        lines.append(f"u{user},i{item},{float(k)!r},0,{feats}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
