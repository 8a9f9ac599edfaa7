"""Measurement loop, correctness gate, metrics and self-test of the benchmark.

Imported by run.py once grnnlab's sources are on sys.path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import threading
import time
import tracemalloc
from contextlib import ExitStack, nullcontext

import numpy as np

from grnnlab.batching import make_batches_tbatch
from spans import Probes, Tracer
from workloads import WORKLOADS, Synth, no_span, rel_close

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

MODES = ("f_bptt", "t_bptt")
MIN_EPOCHS = 4
# A traced run traces these epochs of each phase and no others, so every
# per-layer count is a median over the same inputs whatever the machine speed.
TRACED_EPOCHS = (1, 3)
EXTRA_SETUPS = 3  # set-ups timed on top of the one per phase, for the median
TAIL_BEYOND = 10

# Metric tables, (name, unit, better), mirrored in BENCHMARK.json. Per-layer
# values are medians over the traced roots (epochs, validation passes or
# set-ups) of a phase; *_self_s is span self time, *_calls a span count.
TRAIN_LAYER = (
    ("gru.forward_calls", "count", "lower"),
    ("gru.forward_self_s", "s", "lower"),
    ("gru.backward_calls", "count", "lower"),
    ("gru.backward_self_s", "s", "lower"),
    ("engine.train_epoch_self_s", "s", "lower"),
    ("engine.peak_live_records", "count", "lower"),
    ("dynamics.run_batch_calls", "count", "lower"),
    ("dynamics.run_batch_self_s", "s", "lower"),
    ("dynamics.update_yield", "ratio", "higher"),
    ("rng.draws", "count", "lower"),
    ("dropout.state_calls", "count", "lower"),
    ("dropout.state_self_s", "s", "lower"),
    ("mlp.forward_calls", "count", "lower"),
    ("mlp.forward_self_s", "s", "lower"),
    ("mlp.backward_calls", "count", "lower"),
    ("mlp.backward_self_s", "s", "lower"),
    ("adamw.step_self_s", "s", "lower"),
    ("batching.batches", "count", "lower"),
    ("batching.build_self_s", "s", "lower"),
    ("synthtask.generate_self_s", "s", "lower"),
)
EVAL_LAYER = (
    ("engine.advance_states_self_s", "s", "lower"),
    ("engine.forward_epoch_self_s", "s", "lower"),
    ("evalbench.evaluate_self_s", "s", "lower"),
    ("evalbench.rank_calls", "count", "lower"),
    ("evalbench.rank_self_s", "s", "lower"),
    ("mlp.score_batch_calls", "count", "lower"),
    ("mlp.score_batch_self_s", "s", "lower"),
    ("mlp.forward_calls", "count", "lower"),
    ("mlp.forward_self_s", "s", "lower"),
    ("gru.forward_calls", "count", "lower"),
    ("gru.forward_self_s", "s", "lower"),
    ("dynamics.run_batch_self_s", "s", "lower"),
    ("dynamics.update_yield", "ratio", "higher"),
)
# Set-up spans: duration of each step (their only inner work is rng draws).
SETUP_LAYER = (
    ("evalbench.write_stream_s", "s", "lower"),
    ("evalbench.ingest_s", "s", "lower"),
    ("evalbench.ingest_rows_per_s", "rows/s", "higher"),
    ("model.init_s", "s", "lower"),
    ("synthtask.generate_s", "s", "lower"),
    ("rng.draws", "count", "lower"),
)
EXTRA_LAYER = (
    ("f_bptt.batching.tbatches", "count", "lower"),
    ("f_bptt.engine.tape_bytes_per_event", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("f_bptt_epoch_s_p50", "s", "lower"),
    ("f_bptt_epoch_s_tail", "s", "lower"),
    ("t_bptt_epoch_s_p50", "s", "lower"),
    ("t_bptt_epoch_s_tail", "s", "lower"),
    ("f_bptt_events_per_s", "events/s", "higher"),
    ("t_bptt_events_per_s", "events/s", "higher"),
    ("eval_s_p50", "s", "lower"),
    ("eval_s_tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = [(f"{phase}.{name}", unit, better)
            for phase in MODES for name, unit, better in TRAIN_LAYER]
    spec += [(f"eval.{name}", unit, better) for name, unit, better in EVAL_LAYER]
    spec += [(f"setup.{name}", unit, better) for name, unit, better in SETUP_LAYER]
    return spec + list(EXTRA_LAYER)


def median(samples: list[float]) -> float:
    """0.0 when a failed operation left no samples (the run is then incorrect)."""
    return statistics.median(samples) if samples else 0.0


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest sample with TAIL_BEYOND samples above it or, in runs too
    short for that, a third of the samples; returns (value, count above)."""
    if not samples:
        return 0.0, 0
    ordered = sorted(samples)
    beyond = min(TAIL_BEYOND, len(ordered) // 3)
    return ordered[len(ordered) - 1 - beyond], beyond


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.wl = WORKLOADS[workload]()
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.probes = Probes(self.tracer)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.epoch_times = {mode: [] for mode in MODES}
        self.train_times = {(mode, traced): [] for mode in MODES for traced in (False, True)}
        self.eval_times: list[float] = []
        self.events = {mode: 0 for mode in MODES}
        self.digest_rows = {mode: [] for mode in MODES}
        self.first_loss: dict[str, float] = {}

    # -- traced / untraced execution -------------------------------------

    def _scope(self, traced: bool, phase: str):
        """(context entering probes + root span, span factory). Collects
        garbage first, so no operation pays for its predecessor's cycles."""
        gc.collect()
        stack = ExitStack()
        if traced:
            stack.enter_context(self.probes.installed())
            stack.enter_context(self.tracer.root(phase))
            return stack, self.tracer.span
        return stack, no_span

    def setup(self):
        scope, span = self._scope(self.trace, "setup")
        with scope:
            t0 = time.perf_counter()
            run = self.wl.setup(self.seed, OUT_DIR, span)
            self.setup_times.append(time.perf_counter() - t0)
        if self.trace and "dataset" in run.extra:
            self.tracer.add("evalbench.ingest_rows", len(run.extra["dataset"].events))
        return run

    def _operation(self, fn, check) -> object:
        """Run one timed operation; returns (result, seconds) or None if it
        failed. Library ValueError / ArithmeticError count as failures."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
            problems = check(result)
        except (ValueError, ArithmeticError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return result, elapsed

    # -- phases -------------------------------------------------------------

    def epoch(self, run, mode: str, epoch: int) -> bool:
        """One training epoch and its validation pass; False once one fails.
        Epoch 0 of each phase is a warm-up: checked and digested, not timed."""
        wl = self.wl
        traced = self.trace and epoch in TRACED_EPOCHS
        before = run.model.copy() if epoch == 0 else None
        scope, span = self._scope(traced, mode)
        with scope:
            done = self._operation(
                lambda: wl.train(run, mode, span),
                lambda out: wl.check_train(out[0], out[1], before, mode),
            )
        if done is None:
            return False
        (events, stats), train_s = done
        if traced:
            self.tracer.add("engine.peak_live_records", stats["peak_live_records"])
            if mode == "f_bptt":
                self.tracer.add("batching.tbatches", len(make_batches_tbatch(events)))
        if epoch == 0:
            self.first_loss[mode] = stats["total_loss"]

        scope, span = self._scope(traced, "eval")
        with scope:
            done = self._operation(
                lambda: wl.validate(run, span),
                lambda result: wl.check_validation(run, result),
            )
        if done is None:
            return False
        val, eval_s = done

        if epoch < MIN_EPOCHS:
            self.digest_rows[mode].append(
                repr((stats["mean_loss"], stats["grad_norm"], val["metric"]))
            )
        if epoch > 0:
            self.train_times[mode, traced].append(train_s)
            self.eval_times.append(eval_s)
            self.epoch_times[mode].append(train_s + (eval_s if wl.validation_in_epoch else 0.0))
            self.events[mode] += stats["n_events"]
        return True

    def measure(self) -> None:
        """Set up several times, then alternate F-BPTT and T-BPTT epochs so
        both phases sample the whole run window."""
        for _ in range(EXTRA_SETUPS):
            self.setup()
        runs = {mode: self.setup() for mode in MODES}
        deadline = time.perf_counter() + self.seconds
        epoch = 0
        while epoch < MIN_EPOCHS or time.perf_counter() < deadline:
            for mode in MODES:
                if not self.epoch(runs[mode], mode, epoch):
                    return
            epoch += 1
        f, t = self.first_loss["f_bptt"], self.first_loss["t_bptt"]
        if not rel_close(f, t):
            self.failed += 1
            self.problems.append(f"first-epoch loss F-BPTT {f!r} != T-BPTT {t!r}")

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.digest_rows, sort_keys=True).encode()
        ).hexdigest()

    # -- memory pass ------------------------------------------------------

    def tape_bytes_per_event(self) -> float:
        """Bytes the F-BPTT forward pass leaves alive in its tape, per event,
        from a fresh set-up outside every timed region."""
        forward = self.wl.tape_forward(self.wl.setup(self.seed, OUT_DIR))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fw = forward()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        return held / len(fw.tape)

    # -- results ----------------------------------------------------------

    def end_to_end(self, import_s: float) -> tuple[dict, dict]:
        values, samples = {}, {}
        values["setup_s"] = import_s + median(self.setup_times)
        samples["setup_s"] = len(self.setup_times)
        for mode in MODES:
            times = self.epoch_times[mode]
            values[f"{mode}_epoch_s_p50"] = median(times)
            values[f"{mode}_epoch_s_tail"], beyond = tail(times)
            samples[f"{mode}_epoch_s"] = {"n": len(times), "tail_beyond": beyond}
            values[f"{mode}_events_per_s"] = self.events[mode] / sum(times) if times else 0.0
        values["eval_s_p50"] = median(self.eval_times)
        values["eval_s_tail"], beyond = tail(self.eval_times)
        samples["eval_s"] = {"n": len(self.eval_times), "tail_beyond": beyond}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["success_rate"] = 1.0 - self.failed / self.attempted
        return values, samples

    def per_layer(self, tape_bytes: float) -> tuple[dict, dict]:
        by_phase: dict[str, list[dict]] = {}
        for phase, row in self.tracer.per_root():
            by_phase.setdefault(phase, []).append(row)

        def med(phase: str, key: str) -> float:
            rows = by_phase.get(phase, [])
            return median([row.get(key, 0.0) for row in rows])

        def update_yield(phase: str) -> float:
            slots = med(phase, "dynamics.update_slots")
            return med(phase, "dynamics.updates_computed") / slots if slots else 0.0

        def layer(phase: str, name: str) -> float:
            if name == "dynamics.update_yield":
                return update_yield(phase)
            return med(phase, name)

        values = {}
        for phase in MODES:
            for name, _, _ in TRAIN_LAYER:
                values[f"{phase}.{name}"] = layer(phase, name)
        for name, _, _ in EVAL_LAYER:
            values[f"eval.{name}"] = layer("eval", name)
        for span in ("evalbench.write_stream", "evalbench.ingest", "model.init",
                     "synthtask.generate"):
            values[f"setup.{span}_s"] = med("setup", span + "_self_s")
        values["setup.rng.draws"] = med("setup", "rng.draws")
        ingest_s = values["setup.evalbench.ingest_s"]
        values["setup.evalbench.ingest_rows_per_s"] = (
            med("setup", "evalbench.ingest_rows") / ingest_s if ingest_s else 0.0
        )
        values["f_bptt.batching.tbatches"] = med("f_bptt", "batching.tbatches")
        values["f_bptt.engine.tape_bytes_per_event"] = tape_bytes
        untraced = median(self.train_times["f_bptt", False])
        values["trace.overhead_frac"] = (
            median(self.train_times["f_bptt", True]) / untraced - 1.0 if untraced else 0.0
        )
        values["trace.spans"] = med("f_bptt", "spans")
        samples = {phase: len(rows) for phase, rows in by_phase.items()}
        return values, samples


def selftest() -> list[str]:
    """Check the tracer on a tiny synth epoch (20 events): self times sum to
    the root span, counts match their closed forms, and installing the
    wrappers leaves the results unchanged."""
    wl = Synth(hidden=8, edges=20, num_nodes=10)

    def one_epoch(tracer=None):
        run = wl.setup(0, OUT_DIR)
        with tracer.root("f_bptt") if tracer else nullcontext():
            _, stats = wl.train(run, "f_bptt", tracer.span if tracer else no_span)
        return repr((stats["mean_loss"], stats["grad_norm"]))

    problems = []
    plain = one_epoch()
    tracer = Tracer()
    with Probes(tracer).installed():
        traced = one_epoch(tracer)
    if plain != traced:
        problems.append(f"selftest: wrappers changed the result ({plain} vs {traced})")
    (_, row), = tracer.per_root()
    self_sum = sum(v for k, v in row.items() if k.endswith("_self_s"))
    if abs(self_sum - row["root_s"]) > 1e-9:
        problems.append(f"selftest: self times sum to {self_sum!r}, root is {row['root_s']!r}")
    events = wl.config.edges_per_epoch
    for key, want in (("gru.forward_calls", 2 * events), ("mlp.forward_calls", events)):
        if row.get(key) != want:
            problems.append(f"selftest: {key} = {row.get(key)} != {want}")
    return problems


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Run one workload; prints the info line and returns the result object."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(seed)
    bench = Bench(workload, seed, seconds, trace)
    if trace:
        bench.problems += selftest()
        tape_bytes = bench.tape_bytes_per_event()
    bench.measure()
    env["loadavg_end"] = os.getloadavg()
    env["threads"] = threading.active_count()

    if trace:
        metrics, samples = bench.per_layer(tape_bytes)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        bench.tracer.write(os.path.join(OUT_DIR, f"spans_{workload}_s{seed}.jsonl"))
    else:
        metrics, samples = bench.end_to_end(import_s)
        units = {name: unit for name, unit, _ in END_TO_END}
    info = {"workload": workload, "env": env, "digest": bench.digest(),
            "samples": samples, "problems": bench.problems}
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
