"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy truncation-gap criterion runs at its documented reduced scale
(500 epochs, memory in {1, 4}, thresholds 0.05x / 0.25x); the full-scale
protocol lives in scripts/run_synth_sweep.py.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import os
import time

import numpy as np
import pytest

import grnnlab as g
from grnnlab.adamw import AdamwState
from grnnlab.batching import assert_tbatch_valid, make_batches_fixed, make_batches_tbatch
from grnnlab.cli import main as cli_main
from grnnlab.dynamics import run_batch
from grnnlab.evalbench import (
    SearchSpace,
    TrialConfig,
    load_jodie_csv,
    random_ranker_mrr,
    random_search,
    rank_scores,
    run_trial,
    write_synthetic_linkstream,
)
from helpers import params_equal
from test_evalbench import one_hot_identity_model
from grnnlab.evalbench import compute_metrics, rank_true_destination


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_gradient_exactness():
    """The F-BPTT gradient training applies matches central finite
    differences (rel err <= 1e-5) on 20 random graphs (<= 20 events, m <= 8)
    across all three strategies."""
    t0 = time.time()
    strategies = ["sequential", "t_batch", "fixed_parallel"]
    worst = 0.0
    for i in range(20):
        rng = g.Rng(1000 + i)
        m = 2 + rng.randrange(7)
        n_events = 5 + rng.randrange(16)
        n_nodes = 4 + rng.randrange(5)
        memory = 1 + rng.randrange(3)
        strategy = strategies[i % 3]
        if strategy == "sequential":
            size = 3 if i % 2 else None
        elif strategy == "t_batch":
            size = None
        else:
            size = 1 + rng.randrange(6)
        batching = g.BatchingConfig(strategy=strategy, batch_size=size)
        err, _ = g.epoch_gradient_check(rng, m, memory, n_nodes, n_events, batching, "f_bptt")
        worst = max(worst, err)
        assert err <= 1e-5, (i, strategy, err)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, f"20 graphs, worst rel err {worst:.2e}, {elapsed:.0f}s")


def test_criterion_2_truncation_vacuity():
    """One epoch-spanning batch: the F-BPTT and T-BPTT gradients training
    applies are bit-identical (and pass their finite-difference checks) and,
    under identical seeds, the trajectories are bit-identical."""
    cfg = g.SyntheticConfig(memory=2, num_nodes=12, edges_per_epoch=60)
    batching = g.BatchingConfig("sequential", None)

    grads = {}
    for mode in ("f_bptt", "t_bptt"):
        err, grads[mode] = g.epoch_gradient_check(
            g.Rng(5), 6, 2, 12, 60, batching, mode, max_coords_per_tensor=5
        )
        assert err <= 1e-5, (mode, err)
    assert params_equal(grads["f_bptt"], grads["t_bptt"])

    trajectories = {}
    for mode in ("f_bptt", "t_bptt"):
        root = g.Rng(5)
        m = g.init_model(root.substream("init"), 6, 1, "regression")
        opt = AdamwState(lr=1e-3, weight_decay=1e-4)
        data_rng = root.substream("data")
        st = g.NodeStateStore.zeros(12, 6)
        curve = []
        for _ in range(4):
            evs = g.generate_epoch(cfg, data_rng)
            curve.append(g.train_epoch(evs, m, opt, mode, batching, store=st)["mean_loss"])
        trajectories[mode] = (curve, {k: v.copy() for k, v in m.named_params().items()})
    assert trajectories["f_bptt"][0] == trajectories["t_bptt"][0]
    assert params_equal(trajectories["f_bptt"][1], trajectories["t_bptt"][1])
    report(2, "gradients and 4-epoch trajectories bit-identical")


def test_criterion_3_batching_equivalence():
    """t-batched parallel, size-1 fixed, and fully sequential processing are
    bit-identical on 100 random streams."""
    for trial in range(100):
        rng = g.Rng(3000 + trial)
        n_nodes = 3 + rng.randrange(8)
        n_events = 1 + rng.randrange(30)
        m = 2 + rng.randrange(5)
        cfg = g.SyntheticConfig(memory=1, num_nodes=n_nodes, edges_per_epoch=n_events)
        events = g.generate_epoch(cfg, rng.substream("data"))
        model = g.init_model(rng.substream("init"), m, 1, "regression")

        s_seq = g.NodeStateStore.zeros(n_nodes, m)
        run_batch(s_seq, g.Batch(events=list(events), strategy="sequential"), model)

        s_tb = g.NodeStateStore.zeros(n_nodes, m)
        for batch in make_batches_tbatch(events):
            assert_tbatch_valid(batch)
            run_batch(s_tb, batch, model)

        s_p1 = g.NodeStateStore.zeros(n_nodes, m)
        for batch in make_batches_fixed(events, 1):
            run_batch(s_p1, batch, model)

        assert np.array_equal(s_seq.states, s_tb.states)
        assert np.array_equal(s_seq.states, s_p1.states)
        assert np.array_equal(s_seq.last_update_event, s_tb.last_update_event)
        assert np.array_equal(s_seq.last_update_event, s_p1.last_update_event)
    report(3, "100 random streams, three strategies, bit-identical states")


def test_criterion_4_synthetic_oracle_sanity():
    """(a) zero-predictor baseline approaches the stationary value 2/3 over
    100 generated epochs (long epochs: the default length keeps visible
    zero-state burn-in; measured there too and reported); (b) impulse delay
    equals M+1 node-events for M in {1, 2, 4}."""
    rng = g.Rng(11).substream("data")
    cfg = g.SyntheticConfig(memory=1, num_nodes=100, edges_per_epoch=10_000)
    total, count = 0.0, 0
    for _ in range(100):
        events = g.generate_epoch(cfg, rng)
        total += sum(ev.y * ev.y for ev in events)
        count += len(events)
    stationary = total / count
    assert abs(stationary - 2.0 / 3.0) < 0.05

    default_cfg = g.SyntheticConfig(memory=1)
    rng2 = g.Rng(11).substream("data")
    bases = [g.baseline_mse(g.generate_epoch(default_cfg, rng2)) for _ in range(100)]

    for memory in (1, 2, 4):
        state = g.OracleState.zeros(2, memory)
        impulse_at = 2
        first = None
        for k in range(impulse_at + memory + 6):
            y = g.oracle_step(state, 0, 1, 1.0 if k == impulse_at else 0.0)
            if y != 0.0 and first is None:
                first = k
        assert first - impulse_at == memory + 1
    report(4, f"stationary baseline {stationary:.4f} (default-length epochs: "
              f"{np.mean(bases):.4f} with burn-in), delays M+1 for M in {{1,2,4}}")


@pytest.mark.slow
def test_criterion_5_truncation_gap_reduced():
    """Reduced truncation-gap check (500 epochs, m=32, N=100, E=1000):
    F-BPTT <= 0.05x baseline at M in {1,4}; T-BPTT >= 0.25x at M=4.
    Runs in well under 30 minutes."""
    t0 = time.time()

    def run(mode, memory, epochs=500):
        cfg = g.SyntheticConfig(memory=memory)
        batching = g.BatchingConfig("sequential", None if mode == "f_bptt" else 1)
        root = g.Rng(0)
        model = g.init_model(root.substream("init"), 32, 1, "regression")
        opt = AdamwState(lr=1e-3, weight_decay=1e-4)
        data_rng = root.substream("data")
        store = g.NodeStateStore.zeros(cfg.num_nodes, 32)
        losses, bases = [], []
        for _ in range(epochs):
            events = g.generate_epoch(cfg, data_rng)
            losses.append(
                g.train_epoch(events, model, opt, mode, batching, store=store)["mean_loss"]
            )
            bases.append(g.baseline_mse(events))
        return float(np.mean(losses[-100:])) / float(np.mean(bases[-100:]))

    ratio_f1 = run("f_bptt", 1)
    assert ratio_f1 <= 0.05, f"F-BPTT at M=1: {ratio_f1:.4f} > 0.05"
    ratio_f4 = run("f_bptt", 4)
    assert ratio_f4 <= 0.05, f"F-BPTT at M=4: {ratio_f4:.4f} > 0.05"
    ratio_t4 = run("t_bptt", 4)
    assert ratio_t4 >= 0.25, f"T-BPTT at M=4: {ratio_t4:.4f} < 0.25"
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    report(5, f"F: {ratio_f1:.4f}@M=1 {ratio_f4:.4f}@M=4 (<=0.05); "
              f"T: {ratio_t4:.4f}@M=4 (>=0.25); {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_6_benchmark_pipeline(tmp_path):
    """(a) one trial per mode on a 5000-edge interaction slice trains to
    completion with MRR strictly above the random-ranker expectation H(U)/U;
    (b) metric plumbing: memorizing scorer gives MRR = Recall@10 = 1, a
    constant scorer ranks at universe size.

    Uses the real benchmark CSV when GRNNLAB_WIKIPEDIA_CSV is set; otherwise a
    deterministic synthetic interaction stream in the same schema (dataset
    downloads are out of scope)."""
    real = os.environ.get("GRNNLAB_WIKIPEDIA_CSV")
    if real:
        dataset = load_jodie_csv(real, max_events=5000, name="wikipedia-slice")
    else:
        path = str(tmp_path / "stream.csv")
        write_synthetic_linkstream(path, num_events=5000, num_users=200,
                                   num_items=60, seed=7)
        dataset = load_jodie_csv(path, name="synthetic-slice")
    baseline = random_ranker_mrr(dataset.num_destinations)

    trial = TrialConfig(learning_rate=3e-3, weight_decay=1e-5, mlp_dropout=0.0,
                        state_dropout=0.0, state_dropout_type="regular")
    results = {}
    for mode in ("t_bptt", "f_bptt"):
        res = run_trial(dataset, trial, mode, seed=0, hidden_size=16,
                        batch_size=200, max_epochs=12, patience=12)
        assert res.mrr > baseline, f"{mode}: MRR {res.mrr:.4f} <= random {baseline:.4f}"
        results[mode] = res.mrr

    # (b) plumbing oracles
    n = 6
    model = one_hot_identity_model(n)
    store = g.NodeStateStore.zeros(n, n)
    universe = np.arange(3, 6)
    for cand in universe:
        store.states[cand] = np.eye(n)[cand]
    ranks = []
    for src, true_dst in ((0, 3), (1, 4), (2, 5)):
        store.states[src] = np.eye(n)[true_dst]
        edge = g.Event(index=0, src=src, dst=int(true_dst), time=0.0,
                       features=np.zeros(1))
        ranks.extend(rank_true_destination(model, store, [edge], universe))
    metrics = compute_metrics(ranks)
    assert metrics["mrr"] == 1.0 and metrics["recall_at_10"] == 1.0
    assert rank_scores(np.zeros(1000), 77) == 1000

    report(6, f"random baseline {baseline:.4f}; "
              f"t_bptt MRR {results['t_bptt']:.4f}, f_bptt MRR {results['f_bptt']:.4f}; "
              f"oracle scorer MRR 1.0; constant scorer rank 1000")


def test_criterion_7_search_space_fidelity():
    """10,000 sampled trial configs all fall inside their domains and the
    log-uniform medians match closed form within 10%."""
    trials = random_search(SearchSpace(), 10_000, seed=123)
    lrs = np.array([t.learning_rate for t in trials])
    wds = np.array([t.weight_decay for t in trials])
    kinds = {t.state_dropout_type for t in trials}
    for t in trials:
        assert 1e-3 <= t.learning_rate <= 1e-2
        assert 1e-5 <= t.weight_decay <= 1.0
        assert 0.0 <= t.mlp_dropout <= 0.3
        assert 0.0 <= t.state_dropout <= 0.3
        assert t.state_dropout_type in ("regular", "recurrent")
    assert kinds == {"regular", "recurrent"}
    lr_median = float(np.median(lrs))
    wd_median = float(np.median(wds))
    assert abs(lr_median - 10**-2.5) / 10**-2.5 < 0.10
    assert abs(wd_median - 10**-2.5) / 10**-2.5 < 0.10
    report(7, f"10k trials in domain; lr median {lr_median:.2e}, "
              f"wd median {wd_median:.2e} (closed form 3.16e-3)")


def test_criterion_8_command_determinism(tmp_path):
    """Re-running a command with identical config and seed produces
    byte-identical output files."""
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = {
        "command": "synth",
        "memory_values": [1, 2],
        "hidden_sizes": [4],
        "seeds": [0, 1],
        "epochs": 3,
        "num_nodes": 10,
        "edges_per_epoch": 15,
        "summary_window": 3,
        "mode": "both",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["synth", "--config", str(cfg_path), "--out", out1]) == 0
    assert cli_main(["synth", "--config", str(cfg_path), "--out", out2]) == 0

    files1 = sorted(os.listdir(out1))
    files2 = sorted(os.listdir(out2))
    assert files1 == files2
    compared = 0
    for name in files1:
        if name == "effective_config.json":
            continue  # embeds out_dir by design
        with open(os.path.join(out1, name)) as fa, open(os.path.join(out2, name)) as fb:
            assert fa.read() == fb.read(), name
        compared += 1

    stream = str(tmp_path / "stream.csv")
    write_synthetic_linkstream(stream, num_events=600, num_users=25, num_items=10, seed=5)
    bench_cfg = {
        "command": "bench", "dataset_path": stream, "trials": 1, "seeds": [0],
        "hidden_size": 4, "batch_size": 50, "max_epochs": 2, "patience": 2,
        "mode": "both",
    }
    bench_path = tmp_path / "bench.json"
    bench_path.write_text(json.dumps(bench_cfg))
    b1, b2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert cli_main(["bench", "--config", str(bench_path), "--out", b1]) == 0
    assert cli_main(["bench", "--config", str(bench_path), "--out", b2]) == 0
    for name in sorted(os.listdir(b1)):
        if name == "effective_config.json":
            continue
        with open(os.path.join(b1, name)) as fa, open(os.path.join(b2, name)) as fb:
            assert fa.read() == fb.read(), name
        compared += 1
    report(8, f"{compared} output files byte-identical across reruns (synth + bench)")
