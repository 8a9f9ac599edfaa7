"""Command-line entry point: synth, bench, and gradcheck experiments.

Config precedence: dataclass defaults < JSON config file < GRNNLAB_* env
vars < explicit CLI flags. Unknown config keys are rejected. synth and bench
write their outputs under --out, including an effective_config.json that
reproduces the run byte-for-byte; gradcheck only prints its checks.

Exit codes: 0 success, 1 config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .adamw import AdamwState
from .engine import BatchingConfig, train_epoch
from .errors import ConfigError, DataError, NumericalError
from .evalbench import (
    SearchSpace,
    TrialResult,
    load_jodie_csv,
    random_search,
    run_trial,
)
from .events import NodeStateStore
from .gradcheck import epoch_gradient_check, finite_diff_check
from .gru import gru_backward, gru_forward, init_gru_parameters
from .mlp import init_mlp_parameters, mlp_backward, mlp_forward
from .model import init_model
from .oracles import gru_forward_reference, mlp_forward_reference
from .rng import Rng
from .synthtask import SyntheticConfig, baseline_mse, generate_epoch

log = logging.getLogger("grnnlab")

ENV_PREFIX = "GRNNLAB_"


# ---------------------------------------------------------------------------
# configs


@dataclass
class SynthConfig:
    memory_values: list[int] = field(default_factory=lambda: [1, 2, 4, 8])
    hidden_sizes: list[int] = field(default_factory=lambda: [32])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    epochs: int = 5000
    num_nodes: int = 100
    edges_per_epoch: int = 1000
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    mode: str = "both"
    tbptt_batch_size: int = 1
    summary_window: int = 100
    out_dir: str = "out_synth"


@dataclass
class BenchConfig:
    dataset_path: str = ""
    dataset_name: str = ""
    trials: int = 25
    mode: str = "both"
    seeds: list[int] = field(default_factory=lambda: [0])
    hidden_size: int = 64
    batch_size: int = 200
    patience: int = 250
    max_epochs: int = 1000
    train_frac: float = 0.70
    val_frac: float = 0.15
    max_events: int | None = None
    out_dir: str = "out_bench"


@dataclass
class GradcheckConfig:
    hidden_size: int = 4
    memory: int = 2
    num_nodes: int = 6
    events: int = 10
    eps: float = 1e-5
    tolerance: float = 1e-5
    cell_tolerance: float = 1e-6
    seed: int = 0
    inject_gradient_fault: bool = False


_CONFIG_TYPES = {"synth": SynthConfig, "bench": BenchConfig, "gradcheck": GradcheckConfig}


def _coerce(raw: str, hint):
    """Parse an env-var override as JSON; string fields, and text that is
    not JSON, keep the raw text (the type check rejects it where needed)."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        return raw
    return raw if hint is str and not isinstance(value, str) else value


def _type_ok(value, hint) -> bool:
    """value matches a config annotation: bool is not an int, an int is a
    valid float, list elements are checked, unions accept any member."""
    origin = typing.get_origin(hint)
    if origin is list:
        (elem,) = typing.get_args(hint)
        return isinstance(value, list) and all(_type_ok(v, elem) for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(_type_ok(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _set_field(cfg, hints: dict, key: str, value, source: str) -> None:
    if key not in hints:
        raise ConfigError(f"unknown config key {key!r}")
    hint = hints[key]
    if not _type_ok(value, hint):
        expected = hint.__name__ if isinstance(hint, type) else str(hint)
        raise ConfigError(f"{source}: {key} must be {expected}, got {value!r}")
    setattr(cfg, key, value)


def load_config(command: str, config: str | dict | None, overrides: dict):
    """config is a JSON config file path, or the parsed contents of one."""
    cls = _CONFIG_TYPES[command]
    cfg = cls()
    hints = typing.get_type_hints(cls)

    if config and isinstance(config, str):
        try:
            with open(config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise ConfigError(f"cannot read config file {config}: {exc}") from exc
    if config:
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
        data = dict(config)
        command_in_file = data.pop("command", command)
        if command_in_file != command:
            raise ConfigError(
                f"config file is for command {command_in_file!r}, not {command!r}"
            )
        for key, value in data.items():
            _set_field(cfg, hints, key, value, "config file")

    for key, hint in hints.items():
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            _set_field(cfg, hints, key, _coerce(env, hint), ENV_PREFIX + key.upper())

    for key, value in overrides.items():
        if value is not None:
            _set_field(cfg, hints, key, value, "command line")
    _validate_config(command, cfg)
    return cfg


def _validate_config(command: str, cfg) -> None:
    if getattr(cfg, "mode", "both") not in ("f_bptt", "t_bptt", "both"):
        raise ConfigError(f"mode must be f_bptt, t_bptt or both, got {cfg.mode!r}")
    if command == "synth":
        if cfg.epochs < 1 or cfg.summary_window < 1:
            raise ConfigError("epochs and summary_window must be >= 1")
        if any(m < 1 for m in cfg.memory_values):
            raise ConfigError("memory_values must all be >= 1")
        if any(h < 1 for h in cfg.hidden_sizes):
            raise ConfigError("hidden_sizes must all be >= 1")
        if cfg.num_nodes < 2:
            raise ConfigError("num_nodes must be >= 2")
        if cfg.edges_per_epoch < 1 or cfg.tbptt_batch_size < 1:
            raise ConfigError("edges_per_epoch and tbptt_batch_size must be >= 1")
        if not 0.0 < cfg.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be > 0 and finite, got {cfg.learning_rate}")
        if not 0.0 <= cfg.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {cfg.weight_decay}")
    elif command == "bench":
        if not cfg.dataset_path:
            raise ConfigError("bench needs a dataset_path")
        if cfg.trials < 1 or cfg.max_epochs < 1 or cfg.batch_size < 1:
            raise ConfigError("trials, max_epochs and batch_size must be >= 1")
        if cfg.hidden_size < 1:
            raise ConfigError(f"hidden_size must be >= 1, got {cfg.hidden_size}")
        if not cfg.seeds:
            raise ConfigError("seeds must not be empty")
    elif command == "gradcheck":
        if cfg.eps <= 0 or cfg.tolerance <= 0:
            raise ConfigError("eps and tolerance must be positive")
        if cfg.hidden_size < 1 or cfg.memory < 1 or cfg.events < 1:
            raise ConfigError("hidden_size, memory and events must be >= 1")
        if cfg.num_nodes < 2:
            raise ConfigError("num_nodes must be >= 2")


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _dump_effective_config(cfg, command: str, out_dir: str) -> None:
    payload = {"command": command, **dataclasses.asdict(cfg)}
    _write_atomic(
        os.path.join(out_dir, "effective_config.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def _modes(cfg) -> list[str]:
    return ["t_bptt", "f_bptt"] if cfg.mode == "both" else [cfg.mode]


# ---------------------------------------------------------------------------
# synth command


def _run_synth_cell(cfg: SynthConfig, memory: int, mode: str, hidden: int, seed: int) -> dict:
    scfg = SyntheticConfig(
        memory=memory, num_nodes=cfg.num_nodes, edges_per_epoch=cfg.edges_per_epoch
    )
    batching = BatchingConfig(
        strategy="sequential",
        batch_size=None if mode == "f_bptt" else cfg.tbptt_batch_size,
    )
    root = Rng(seed)
    model = init_model(root.substream("init"), hidden, 1, "regression")
    optimizer = AdamwState(lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    data_rng = root.substream("data")
    store = NodeStateStore.zeros(cfg.num_nodes, hidden)

    losses: list[float] = []
    baselines: list[float] = []
    telemetry_lines: list[str] = []
    t_start = time.time()
    for epoch in range(cfg.epochs):
        events = generate_epoch(scfg, data_rng)
        stats = train_epoch(events, model, optimizer, mode, batching, store=store)
        losses.append(stats["mean_loss"])
        baselines.append(baseline_mse(events))
        telemetry_lines.append(
            json.dumps(
                {
                    "epoch": epoch,
                    "mean_loss": stats["mean_loss"],
                    "grad_norm": stats["grad_norm"],
                    "peak_live_records": stats["peak_live_records"],
                },
                sort_keys=True,
            )
        )
    window = min(cfg.summary_window, len(losses))
    tail = losses[-window:]
    cell_name = f"synth_M{memory}_{mode}_h{hidden}_s{seed}"
    _write_atomic(
        os.path.join(cfg.out_dir, cell_name + ".jsonl"), "\n".join(telemetry_lines) + "\n"
    )
    log.info(
        "cell %s done: final_mse=%.6g wall_time=%.1fs", cell_name,
        float(np.mean(tail)), time.time() - t_start,
    )
    return {
        "M": memory,
        "mode": mode,
        "hidden": hidden,
        "seed": seed,
        "final_mse": float(np.mean(tail)),
        "final_mse_min": float(np.min(tail)),
        "final_mse_max": float(np.max(tail)),
        "baseline_mse": float(np.mean(baselines[-window:])),
    }


def cmd_synth(cfg: SynthConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    _dump_effective_config(cfg, "synth", cfg.out_dir)
    grid = [
        (memory, mode, hidden, seed)
        for memory in cfg.memory_values
        for mode in _modes(cfg)
        for hidden in cfg.hidden_sizes
        for seed in cfg.seeds
    ]
    rows = [_run_synth_cell(cfg, *cell) for cell in grid]

    header = "M,mode,hidden,seed,final_mse,final_mse_min,final_mse_max,baseline_mse"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['M']},{row['mode']},{row['hidden']},{row['seed']},"
            f"{row['final_mse']!r},{row['final_mse_min']!r},"
            f"{row['final_mse_max']!r},{row['baseline_mse']!r}"
        )
    _write_atomic(os.path.join(cfg.out_dir, "summary.csv"), "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# bench command


def _trial_filename(mode: str, seed: int, trial_index: int) -> str:
    return f"trial_{mode}_s{seed}_t{trial_index}.json"


def _run_bench_trial(cfg: BenchConfig, dataset, trial, mode, seed, trial_index) -> TrialResult:
    telemetry: list[str] = []

    def on_epoch(epoch, stats, val_metrics):
        telemetry.append(
            json.dumps(
                {
                    "epoch": epoch,
                    "mean_loss": stats["mean_loss"],
                    "grad_norm": stats["grad_norm"],
                    "peak_live_records": stats["peak_live_records"],
                    "val_mrr": val_metrics["mrr"],
                    "val_recall_at_10": val_metrics["recall_at_10"],
                },
                sort_keys=True,
            )
        )

    t_start = time.time()
    result = run_trial(
        dataset, trial, mode, seed,
        hidden_size=cfg.hidden_size,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        train_frac=cfg.train_frac,
        val_frac=cfg.val_frac,
        trial_index=trial_index,
        epoch_callback=on_epoch,
    )
    payload = {
        "dataset": dataset.name,
        "mode": mode,
        "seed": seed,
        "trial": trial_index,
        "trial_config": trial.to_dict(),
        "mrr": result.mrr,
        "recall_at_10": result.recall_at_10,
        "epochs": result.epochs_run,
        "best_epoch": result.best_epoch,
        "best_val_mrr": result.best_val_mrr,
    }
    base = _trial_filename(mode, seed, trial_index)
    _write_atomic(os.path.join(cfg.out_dir, base), json.dumps(payload, sort_keys=True) + "\n")
    _write_atomic(
        os.path.join(cfg.out_dir, base.replace(".json", ".jsonl")),
        "\n".join(telemetry) + "\n",
    )
    log.info(
        "trial %s done: test_mrr=%.4f wall_time=%.1fs", base, result.mrr, time.time() - t_start
    )
    return result


def cmd_bench(cfg: BenchConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    _dump_effective_config(cfg, "bench", cfg.out_dir)
    try:
        dataset = load_jodie_csv(
            cfg.dataset_path, max_events=cfg.max_events,
            name=cfg.dataset_name or os.path.basename(cfg.dataset_path),
        )
    except FileNotFoundError:
        raise DataError(f"dataset not readable: {cfg.dataset_path}") from None
    log.info(
        "dataset %s: %d events, %d sources, %d destinations, feat_dim=%d",
        dataset.name, len(dataset.events), dataset.num_sources,
        dataset.num_destinations, dataset.feat_dim,
    )

    jobs = []
    for seed in cfg.seeds:
        trials = random_search(SearchSpace(), cfg.trials, seed=seed)
        for mode in _modes(cfg):
            for trial_index, trial in enumerate(trials):
                jobs.append((trial, mode, seed, trial_index))
    results = [_run_bench_trial(cfg, dataset, *j) for j in jobs]

    # per (mode, seed): the trial with the best validation MRR gives the
    # reported test metrics; aggregate across seeds
    selected: dict[str, list[TrialResult]] = {}
    for mode in _modes(cfg):
        per_seed = []
        for seed in cfg.seeds:
            candidates = [r for r in results if r.mode == mode and r.seed == seed]
            per_seed.append(max(candidates, key=lambda r: r.best_val_mrr))
        selected[mode] = per_seed

    def agg(values):
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        return mean, stderr

    lines = ["dataset,row,mrr,mrr_stderr,recall_at_10,recall_at_10_stderr"]
    stats = {}
    for mode in ("t_bptt", "f_bptt"):
        if mode not in selected:
            continue
        mrr_m, mrr_s = agg([r.mrr for r in selected[mode]])
        rec_m, rec_s = agg([r.recall_at_10 for r in selected[mode]])
        stats[mode] = (mrr_m, mrr_s, rec_m, rec_s)
        lines.append(f"{dataset.name},{mode},{mrr_m!r},{mrr_s!r},{rec_m!r},{rec_s!r}")
    if len(stats) == 2:
        gap_mrr = stats["f_bptt"][0] - stats["t_bptt"][0]
        gap_rec = stats["f_bptt"][2] - stats["t_bptt"][2]
        gap_mrr_s = float(np.hypot(stats["f_bptt"][1], stats["t_bptt"][1]))
        gap_rec_s = float(np.hypot(stats["f_bptt"][3], stats["t_bptt"][3]))
        lines.append(f"{dataset.name},gap,{gap_mrr!r},{gap_mrr_s!r},{gap_rec!r},{gap_rec_s!r}")
    _write_atomic(os.path.join(cfg.out_dir, "results_table.csv"), "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# gradcheck command


def cmd_gradcheck(cfg: GradcheckConfig) -> int:
    rng = Rng(cfg.seed)
    m = cfg.hidden_size
    checks: list[tuple[str, float, float]] = []  # (name, err, tolerance)

    # cell-level: GRU against its scalar reference plus finite differences
    gru = init_gru_parameters(rng.substream("init"), m, m + 1)
    h = np.array([rng.standard_normal() for _ in range(m)])
    x = np.array([rng.standard_normal() for _ in range(m + 1)])
    h_new, cache = gru_forward(gru, h, x)
    ref = gru_forward_reference(gru.named(""), h, x)
    checks.append(("gru_forward_vs_reference", float(np.abs(h_new - ref).max()), 1e-12))

    w_probe = np.array([rng.standard_normal() for _ in range(m)])
    acc, _, _ = gru_backward(gru, cache, w_probe)
    ref_params = {k: np.asarray(v, dtype=np.longdouble) for k, v in gru.named().items()}

    def gru_loss():
        out = gru_forward_reference(
            {k: ref_params["gru." + k] for k in ("wz", "wr", "wn", "bz", "br", "bn")},
            h, x, dtype=np.longdouble,
        )
        return out @ w_probe  # keep extended precision through the difference

    err = finite_diff_check(gru_loss, ref_params, acc.buffers, eps=cfg.eps)
    checks.append(("gru_backward_fd", err, cfg.cell_tolerance))

    # cell-level: MLP
    mlp = init_mlp_parameters(rng.substream("init").substream(7), 2 * m + 1, m)
    xm = np.array([rng.standard_normal() for _ in range(2 * m + 1)])
    logit, mcache = mlp_forward(mlp, xm)
    ref_logit = mlp_forward_reference(
        {k: v for k, v in zip(("w1", "b1", "w2", "b2"), (mlp.w1, mlp.b1, mlp.w2, mlp.b2))}, xm
    )
    checks.append(("mlp_forward_vs_reference", abs(logit - float(ref_logit)), 1e-12))
    macc, _ = mlp_backward(mlp, mcache, 1.0)
    mref_params = {k: np.asarray(v, dtype=np.longdouble) for k, v in mlp.named().items()}

    def mlp_loss():
        return mlp_forward_reference(
            {k: mref_params["mlp." + k] for k in ("w1", "b1", "w2", "b2")},
            xm, dtype=np.longdouble,
        )

    err = finite_diff_check(mlp_loss, mref_params, macc.buffers, eps=cfg.eps)
    checks.append(("mlp_backward_fd", err, cfg.cell_tolerance))

    # epoch-level: the gradient training applies, in both modes, against
    # finite differences of the full or one-hop truncated reference loss
    grads = {}
    for strategy, size in (("sequential", None), ("t_batch", None), ("fixed_parallel", 3)):
        for mode, label in (("f_bptt", "full"), ("t_bptt", "truncated")):
            err, grads[strategy, mode] = epoch_gradient_check(
                rng, m, cfg.memory, cfg.num_nodes, cfg.events,
                BatchingConfig(strategy=strategy, batch_size=size), mode,
                eps=cfg.eps, inject_fault=cfg.inject_gradient_fault,
            )
            checks.append((f"epoch_{label}_bptt_fd_{strategy}", err, cfg.tolerance))

    # truncation vacuity: with one epoch-spanning batch, T-BPTT must
    # reproduce the full gradient bit for bit
    full, trunc = grads["sequential", "f_bptt"], grads["sequential", "t_bptt"]
    diff = max(float(np.abs(full[k] - trunc[k]).max()) for k in full)
    checks.append(("truncation_vacuity", diff, 0.0))

    failed = False
    for name, err, tol in checks:
        status = "ok" if err <= tol else "FAIL"
        if err > tol:
            failed = True
        print(f"{name}: max_rel_err={err:.3e} tolerance={tol:g} {status}")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None, config: dict | None = None) -> int:
    """config: parsed config-file contents, used in place of --config (lets
    scripts pass a config without writing a file)."""
    parser = argparse.ArgumentParser(
        prog="grnnlab",
        description="Dynamic-graph recurrent network training lab",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "memory-horizon sweep on the synthetic edge-regression task"),
        ("bench", "link-ranking benchmark with random hyperparameter search"),
        ("gradcheck", "finite-difference and truncation-vacuity verification"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root seed")
        if name != "gradcheck":
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--mode", default=None, choices=["f_bptt", "t_bptt", "both"])
        if name == "bench":
            p.add_argument("--dataset", default=None, help="dataset CSV path")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(message)s",
        stream=sys.stderr,
    )

    # flags left unset (None) do not override
    if args.command == "gradcheck":
        overrides: dict = {"seed": args.seed}
    else:
        overrides = {
            "out_dir": args.out,
            "mode": args.mode,
            "seeds": None if args.seed is None else [args.seed],
        }
    if args.command == "bench":
        overrides["dataset_path"] = args.dataset

    try:
        cfg = load_config(args.command, args.config if config is None else config, overrides)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "bench":
            return cmd_bench(cfg)
        return cmd_gradcheck(cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
