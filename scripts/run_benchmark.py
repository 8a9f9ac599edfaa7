#!/usr/bin/env python3
"""Link-ranking benchmark runner for interaction-stream CSVs.

Full protocol per dataset: 25 random-search trials per mode and seed,
early stopping when neither validation metric improves for 250 epochs,
hidden size 64, fixed parallel batches of 200 events. The full run is far
beyond desk scale; --smoke runs one short trial per mode on a 5000-edge
slice to exercise the whole pipeline.

Dataset schema (CSV): header row, then
    user_id,item_id,timestamp,state_label,<comma-separated float features>
"""

import argparse
import sys

from grnnlab.cli import main as cli_main


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dataset", help="path to the interaction CSV")
    parser.add_argument("--out", default="out_benchmark")
    parser.add_argument("--mode", default="both", choices=["f_bptt", "t_bptt", "both"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--smoke", action="store_true",
                        help="one trial per mode on a 5000-edge slice")
    args = parser.parse_args()

    cfg = {
        "command": "bench",
        "dataset_path": args.dataset,
        "seeds": args.seeds,
    }
    if args.smoke:
        cfg.update(trials=1, seeds=[0], hidden_size=16, max_epochs=12,
                   patience=12, max_events=5000)
    sys.exit(cli_main(["--verbose", "bench", "--out", args.out, "--mode", args.mode],
                      config=cfg))
