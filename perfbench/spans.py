"""In-memory span tracer and the wrappers that put it around grnnlab's layers.

A span is (name, start, end, parent index). Spans are opened either by the
benchmark itself (``Tracer.span``) or by wrappers that ``Probes`` installs on
the module attributes through which the library reaches each layer, so no
library code is edited. ``Rng.next_u64`` gets a bare call counter instead of
a span: there are hundreds of thousands of draws per epoch.

The workload marks each epoch and each validation pass with a root span
named after its phase; per-layer metrics are per-root sums, then medians
over the roots of a phase.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

PHASES = ("setup", "f_bptt", "t_bptt", "eval")

# (module, attribute, span name). Each entry is a call site the library
# resolves through a module global, so patching the attribute intercepts it.
WRAPPED = (
    ("grnnlab.dynamics", "gru_forward", "gru.forward"),
    ("grnnlab.engine", "gru_backward", "gru.backward"),
    ("grnnlab.engine", "mlp_forward", "mlp.forward"),
    ("grnnlab.engine", "mlp_backward", "mlp.backward"),
    ("grnnlab.engine", "run_batch", "dynamics.run_batch"),
    ("grnnlab.evalbench", "run_batch", "dynamics.run_batch"),
    ("grnnlab.dynamics", "recurrent_mix", "dropout.state"),
    ("grnnlab.dynamics", "regular_dropout", "dropout.state"),
    ("grnnlab.engine", "adamw_step", "adamw.step"),
    ("grnnlab.engine", "build_batches", "batching.build"),
    ("grnnlab.evalbench", "build_batches", "batching.build"),
    ("grnnlab.evalbench", "advance_states", "engine.advance_states"),
    ("grnnlab.evalbench", "rank_true_destination", "evalbench.rank"),
    ("grnnlab.evalbench", "mlp_score_batch", "mlp.score_batch"),
)


class Tracer:
    """Spans kept in memory plus named counters, attributed to the open root."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent) once closed
        self.stack: list[int] = []
        self.roots: list[tuple[str, int]] = []  # (phase, span index)
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.draws = 0  # Rng.next_u64 calls, read at root boundaries

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def root(self, phase: str):
        """One epoch or validation pass; rng draws inside it are counted."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        if self.stack:
            raise RuntimeError("root spans cannot nest")
        self.roots.append((phase, len(self.spans)))
        draws0 = self.draws
        with self.span(phase):
            yield
        self.add("rng.draws", self.draws - draws0)

    def add(self, counter: str, value: float) -> None:
        """Add to a counter of the current (or most recent) root."""
        self.counts[self.roots[-1][1]][counter] += value

    def wrap(self, name: str, fn):
        """fn inside a span; span() is inlined, as this runs on every call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def per_root(self) -> list[tuple[str, dict[str, float]]]:
        """For each root: its phase and {<layer>_calls, <layer>_self_s,
        counters..., root_s}. Self time is duration minus the children's."""
        spans = self.spans
        self_s = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        root_of = list(range(len(spans)))
        for i, s in enumerate(spans):
            if s[3] >= 0:
                root_of[i] = root_of[s[3]]
        by_root: dict[int, dict[str, float]] = {idx: defaultdict(float) for _, idx in self.roots}
        for i, s in enumerate(spans):
            row = by_root.get(root_of[i])
            if row is None:
                continue
            row[s[0] + "_self_s"] += self_s[i]
            row[s[0] + "_calls"] += 1
            row["spans"] += 1
        out = []
        for phase, idx in self.roots:
            row = by_root[idx]
            row.update(self.counts.get(idx, {}))
            row["root_s"] = spans[idx][2] - spans[idx][1]
            out.append((phase, row))
        return out

    def write(self, path: str) -> None:
        """Dump every span, one JSON array per line: name, start, end, parent."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class Probes:
    """Installs and removes the tracer's wrappers and the rng draw counter."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.targets = [(importlib.import_module(mod), attr, span_name)
                        for mod, attr, span_name in WRAPPED]
        self.rng_cls = importlib.import_module("grnnlab.rng").Rng

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("probes already installed")
        tracer = self.tracer
        for mod, attr, span_name in self.targets:
            orig = getattr(mod, attr)
            self.saved.append((mod, attr, orig))
            inner = self._count_batches(orig) if span_name == "batching.build" else orig
            setattr(mod, attr, tracer.wrap(span_name, inner))
        orig_draw = self.rng_cls.next_u64
        self.saved.append((self.rng_cls, "next_u64", orig_draw))

        def counted_next_u64(rng):
            tracer.draws += 1
            return orig_draw(rng)

        self.rng_cls.next_u64 = counted_next_u64

    def _count_batches(self, build_batches):
        """Counts batches, and the endpoint updates they compute against the
        two per event they could: a parallel batch updates each node once,
        from its last event (Batch.last_event_per_node); a sequential batch
        computes every update."""
        tracer = self.tracer

        def counted(*args, **kwargs):
            batches = build_batches(*args, **kwargs)
            tracer.add("batching.batches", len(batches))
            for batch in batches:
                slots = 2 * len(batch.events)
                tracer.add("dynamics.update_slots", slots)
                tracer.add("dynamics.updates_computed",
                           len(batch.last_event_per_node) if batch.last_event_per_node else slots)
            return batches

        return counted

    def remove(self) -> None:
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.remove()
