#!/usr/bin/env python3
"""Run the default benchmark across all strategies and print the comparison
table (final losses, rounds to half the initial eval loss, communication
ratio versus full fine-tuning).

Usage:
    python3 scripts/run_benchmark.py [--config NAME_OR_PATH] [--out DIR]
"""

import argparse
import sys

from hetlora.cli import main

STRATEGIES = "hetlora,homlora:2,homlora:16,recon_svd,full_ft"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="default")
    parser.add_argument("--out", default="results/benchmark")
    args = parser.parse_args(argv)

    rc = main([
        "sweep", "--config", args.config, "--out", args.out,
        "--strategies", STRATEGIES,
    ])
    if rc != 0:
        return rc
    return main(["report", args.out, "--target-fraction", "0.5",
                 "--csv", f"{args.out}/benchmark_report.csv"])


if __name__ == "__main__":
    sys.exit(run())
