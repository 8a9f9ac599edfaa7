"""grnnlab benchmark: synth and link-ranking training loops, end to end and
per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload synth-h32 --seed 1 --seconds 24 --trace 0

One single-threaded process runs a closed loop over two phases, F-BPTT and
T-BPTT, each from a fresh model. Their epochs alternate (F, T, F, T, ...)
until --seconds have passed and each phase has run at least four epochs, so
both phases sample the same stretch of machine time. Epoch 0 of each phase
is a warm-up: checked, not timed. Every epoch is followed by a validation
pass. Correctness checks run outside the timed regions and count failed
operations (an operation is one epoch or one validation pass).

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics instead: it first self-tests the tracer on a tiny synth epoch, runs
a tracemalloc pass for tape bytes, then traces epochs 1 and 3 of each phase
(the other epochs give the untraced baseline for trace.overhead_frac) and
writes all spans to perfbench/out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the environment, the result digest and sample counts.
The digest is a sha256 over the first MIN_EPOCHS epochs of each phase, so
runs with the same seed print the same digest, traced or not.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the thread count changes both speed and bits.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import importlib
import json
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "grnnlab", "__init__.py")):
        print(f"error: grnnlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    importlib.import_module("grnnlab")  # numpy comes in with it
    import_s = time.perf_counter() - t0

    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
