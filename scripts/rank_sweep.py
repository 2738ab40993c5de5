#!/usr/bin/env python3
"""Sweep homogeneous adapter ranks on the default benchmark to expose the
capacity/communication trade-off: large ranks descend faster, small ranks
overfit noise less.

Usage:
    python3 scripts/rank_sweep.py [--config NAME_OR_PATH] [--ranks 1,2,4,8,16]
"""

import argparse
import sys

from hetlora.cli import main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="default")
    parser.add_argument("--out", default="results/rank_sweep")
    parser.add_argument("--ranks", default="1,2,4,8,16")
    args = parser.parse_args(argv)

    rc = main([
        "sweep", "--config", args.config, "--out", args.out,
        "--ranks", args.ranks,
    ])
    if rc != 0:
        return rc
    return main(["report", args.out, "--target-fraction", "0.5"])


if __name__ == "__main__":
    sys.exit(run())
