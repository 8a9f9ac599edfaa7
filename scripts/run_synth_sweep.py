#!/usr/bin/env python3
"""Full-scale memory-horizon sweep on the synthetic edge-regression task.

Reproduces the truncation-gap figure protocol: both training modes over the
memory sweep, hidden sizes 32/64/128, 5 seeds, 5000 epochs, one AdamW step
per epoch (lr 1e-3, weight decay 1e-4). Expect hours per mode at full scale;
use --reduced for the 500-epoch spot check.

Output: <out>/summary.csv (tidy, one row per grid cell) plus per-cell
JSON-lines loss curves.
"""

import argparse
import sys

from grnnlab.cli import main as cli_main


def sweep_config(reduced: bool) -> dict:
    if reduced:
        return {
            "command": "synth",
            "memory_values": [1, 4],
            "hidden_sizes": [32],
            "seeds": [0],
            "epochs": 500,
        }
    return {
        "command": "synth",
        "memory_values": [1, 2, 4, 8],
        "hidden_sizes": [32, 64, 128],
        "seeds": [0, 1, 2, 3, 4],
        "epochs": 5000,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out_synth_sweep")
    parser.add_argument("--mode", default="both", choices=["f_bptt", "t_bptt", "both"])
    parser.add_argument("--reduced", action="store_true",
                        help="500 epochs, memory in {1,4}, one seed")
    args = parser.parse_args()
    sys.exit(cli_main(["--verbose", "synth", "--out", args.out, "--mode", args.mode],
                      config=sweep_config(args.reduced)))
