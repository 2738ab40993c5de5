"""Experiment orchestration: seeded multi-run execution, learning-rate grid
selection, and output writing.

A run is fully determined by (config, seed): the seed drives task
generation, rank assignment, client selection, adapter init, and batch
sampling. Seeds run one after another in the calling thread, in the
configured order: at desk scale a run is bound by interpreter overhead, so
seed threads would only queue on the interpreter lock. The `threads`
setting is still accepted and validated but changes nothing.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .baselines import run_strategy
from .config import LEARNING_RATE_GRID, ExperimentConfig
from .records import RunResult, summarize, write_jsonl, write_summary_csv

# the names of the files write_outputs writes
OUTPUT_FILES = ("records.jsonl", "records_summary.csv")

__all__ = [
    "OUTPUT_FILES",
    "run_experiment",
    "select_learning_rate",
    "write_outputs",
]


def run_experiment(cfg: ExperimentConfig) -> list[RunResult]:
    """One RunResult per configured seed, in seed order."""
    return [run_strategy(cfg, s) for s in cfg.seeds]


def select_learning_rate(cfg: ExperimentConfig, grid=LEARNING_RATE_GRID
                         ) -> tuple[float, list[RunResult]]:
    """The grid learning rate with the lowest mean final eval loss for the
    configured strategy, and its runs. A rate at which a seed diverges loses
    to every rate at which none does; if every rate has a diverged seed, the
    first rate and its runs are returned."""
    def score(item: tuple[float, list[RunResult]]) -> float:
        s = summarize(item[1])
        return s["final_eval_loss_mean"] if s["completed"] else math.inf

    return min(((lr, run_experiment(dataclasses.replace(cfg, learning_rate=lr)))
                for lr in grid), key=score)


def write_outputs(runs: list[RunResult], out_dir: Path,
                  label: str = "") -> tuple[Path, Path]:
    """Write the JSONL record stream and the sidecar CSV summary."""
    jsonl, csv_path = (Path(out_dir) / f for f in OUTPUT_FILES)
    write_jsonl(runs, jsonl)
    write_summary_csv(runs, csv_path, label=label)
    return jsonl, csv_path
