"""The benchmark in perfbench/ drives grnnlab through its public API. These
tests run each workload's operations at toy size, so a library change that
breaks that API fails here and not only when the benchmark runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

from grnnlab import engine
from grnnlab.batching import make_batches_tbatch, tbatch_levels

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SmallLinkrank(workloads.Linkrank):
    num_events = 300


def test_wrapped_call_sites_resolve():
    for module, attr, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_tracer_selftest_passes():
    assert harness.selftest() == []


@pytest.mark.parametrize("make", [lambda: workloads.Synth(hidden=4, edges=20, num_nodes=10),
                                  SmallLinkrank], ids=["synth", "linkrank"])
def test_workload_operations_report_no_problems(make, tmp_path):
    wl = make()
    for mode in ("f_bptt", "t_bptt"):
        run = wl.setup(1, str(tmp_path))
        before = run.model.copy()
        events, stats = wl.train(run, mode)
        assert wl.check_train(events, stats, before, mode) == []
        assert wl.check_validation(run, wl.validate(run)) == []
    run = wl.setup(1, str(tmp_path))
    fw = wl.tape_forward(run)()
    # tape_bytes_per_event divides by len(fw.tape): one entry per forwarded event
    forwarded = len(run.extra["train"]) if "train" in run.extra else wl.config.edges_per_epoch
    assert len(fw.tape) == forwarded > 0


def test_probes_trace_the_backward_kernels(tmp_path):
    # the per-layer evidence reads these spans; a kernel reached through
    # another name would leave them at zero
    wl = workloads.Synth(hidden=4, edges=20, num_nodes=10)
    run = wl.setup(1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.Probes(tracer).installed(), tracer.root("f_bptt"):
        events, _ = wl.train(run, "f_bptt", tracer.span)
    (_, row), = tracer.per_root()
    # one mlp_backward call per dependency level; a sequential batch's
    # levels are its t-batches
    assert row["mlp.backward_calls"] == len(make_batches_tbatch(events))
    assert row["gru.backward_calls"] > 0


def test_probes_see_one_mlp_backward_call_per_truncation_window(tmp_path):
    # T-BPTT sweeps a window of batches, closed once it holds WINDOW_UPDATES
    # updates, with one mlp_backward call per level, and synth's batches of
    # one event are one level each; the window's forward makes one stacked
    # gru_forward call per t-batch of its events and one mlp_forward call
    wl = workloads.Synth(hidden=4, edges=200, num_nodes=10)
    run = wl.setup(1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.Probes(tracer).installed(), tracer.root("t_bptt"):
        events, _ = wl.train(run, "t_bptt", tracer.span)
    (_, row), = tracer.per_root()
    windows, window, updates = [], [], 0
    for batch in engine.build_batches(events, wl.batching("t_bptt")):
        window, updates = window + batch.events, updates + batch.updates
        if updates >= engine.WINDOW_UPDATES:
            windows, window, updates = windows + [window], [], 0
    windows += [window] if window else []
    assert row["mlp.backward_calls"] == row["mlp.forward_calls"] == len(windows) > 1
    levels = sum(len(make_batches_tbatch(window)) for window in windows)
    assert row["gru.forward_calls"] == levels < 2 * len(events)


def test_probes_see_one_gru_call_per_level_in_synth_validation(tmp_path):
    # the tape-free validation pass forwards its sequential epoch as one
    # window of dependency levels: one stacked gru_forward call per level
    # and one mlp_forward call for every head (F-BPTT training's per-event
    # counts stay pinned by the tracer self-test)
    wl = workloads.Synth(hidden=4, edges=200, num_nodes=10)
    run = wl.setup(1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.Probes(tracer).installed(), tracer.root("eval"):
        result = wl.validate(run, tracer.span)
    (_, row), = tracer.per_root()
    val_events = run.extra["val_events"]
    levels = len(tbatch_levels((ev.src, ev.dst) for ev in val_events))
    assert row["gru.forward_calls"] == levels < 2 * len(val_events)
    assert row["mlp.forward_calls"] == 1
    assert wl.check_validation(run, result) == []


def test_probes_see_one_stacked_gru_call_per_parallel_batch(tmp_path):
    # a parallel batch runs its updates as the rows of one gru_forward and
    # one state-dropout call, and scores its heads as the rows of one
    # mlp_forward call; the reverse sweep makes one mlp_backward call per
    # dependency level, which under truncation is the window, here a batch
    # (each has at least WINDOW_UPDATES updates). A stacked path
    # that bypassed the wrapped call sites would read zero here, and each
    # batch is one run_batch call, so the per-layer evidence of every layer
    # stays per batch
    wl = SmallLinkrank()
    run = wl.setup(1, str(tmp_path))
    assert run.train_kwargs["state_dropout"] is not None
    tracer = spans.Tracer()
    with spans.Probes(tracer).installed():
        for mode in ("f_bptt", "t_bptt"):
            with tracer.root(mode):
                events, _ = wl.train(run, mode, tracer.span)
    rows = dict(tracer.per_root())
    batches = len(engine.build_batches(events, wl.batching))
    for mode, row in rows.items():
        assert row["batching.batches"] == batches > 1
        assert row["gru.forward_calls"] == batches
        assert row["dynamics.run_batch_calls"] == batches
        assert row["dropout.state_calls"] == batches
        assert row["mlp.forward_calls"] == batches
    assert 0 < rows["f_bptt"]["mlp.backward_calls"] <= batches
    assert rows["t_bptt"]["mlp.backward_calls"] == batches


def test_probes_see_one_ranking_call_per_validation_batch(tmp_path):
    # a validation batch's edges are ranked by one rank_true_destination
    # call that scores them all with one mlp_score_batch call; a ranking
    # path around these two names would leave their per-layer evidence at zero
    wl = SmallLinkrank()
    wl.batching = engine.BatchingConfig("fixed_parallel", 16)
    run = wl.setup(1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.Probes(tracer).installed(), tracer.root("eval"):
        result = wl.validate(run, tracer.span)
    (_, row), = tracer.per_root()
    batches = len(engine.build_batches(run.extra["val"], wl.batching))
    assert row["evalbench.rank_calls"] == row["mlp.score_batch_calls"] == batches > 1
    assert len(result["ranks"]) == len(run.extra["val"])


@pytest.mark.parametrize("workload", ["synth-h32", "linkrank-h64"])
def test_traced_benchmark_run_is_correct(workload):
    # the traced run checks the per-layer probes against their closed forms
    # and the results against the untraced ones; it writes under perfbench/out/
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300, cwd=root,
    ).stdout.splitlines()
    assert json.loads(out[-2])["problems"] == []
    assert json.loads(out[-1])["correct"] is True
