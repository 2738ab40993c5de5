#!/usr/bin/env python3
"""Sweep the pruning decay factor gamma over {1, 0.99, 0.95, 0.85} on the
default benchmark and summarize final losses per setting.

Usage:
    python3 scripts/gamma_ablation.py [--config NAME_OR_PATH] [--out DIR]
"""

import argparse
import sys

from hetlora.cli import main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="default")
    parser.add_argument("--out", default="results/gamma_ablation")
    args = parser.parse_args(argv)

    rc = main([
        "sweep", "--config", args.config, "--out", args.out,
        "--gamma-ablation",
    ])
    if rc != 0:
        return rc
    return main(["report", args.out, "--target-fraction", "0.5"])


if __name__ == "__main__":
    sys.exit(run())
