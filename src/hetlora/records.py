"""Run records and their serialization.

One :class:`RoundRecord` per completed communication round, one
:class:`RunResult` per (config, seed). The JSONL serialization is the
canonical machine-readable output; see docs/record_schema.md. Wall-clock
time is kept on the in-memory record and in the CSV summary but is
deliberately excluded from JSONL so that identical (config, seed) runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RoundRecord:
    round_index: int  # 1-based
    eval_loss: float
    client_ranks: tuple[int, ...]  # all clients' current ranks after the round
    down_params: int  # parameters sent server -> clients this round
    up_params: int  # parameters sent clients -> server this round
    cumulative_params: int
    wall_clock: float  # seconds spent in this round (not serialized to JSONL)


@dataclass
class RunResult:
    seed: int
    strategy: str
    initial_eval_loss: float
    records: list[RoundRecord] = field(default_factory=list)
    completed: bool = True
    failure: str | None = None

    @property
    def final_eval_loss(self) -> float:
        return self.records[-1].eval_loss if self.records else self.initial_eval_loss

    @property
    def cumulative_params(self) -> int:
        return self.records[-1].cumulative_params if self.records else 0

    def eval_curve(self) -> list[float]:
        """Eval losses indexed by round, with the pre-training value at 0."""
        return [self.initial_eval_loss] + [r.eval_loss for r in self.records]


def rounds_to_target(run: RunResult, target: float) -> int | None:
    """First round whose eval loss is <= target, counting the pre-training
    eval as round 0; None when the target is never achieved."""
    for t, v in enumerate(run.eval_curve()):
        if v <= target:
            return t
    return None


def _dump(obj) -> str:
    # strict JSON: a NaN or infinite value raises instead of being written
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def to_jsonl_lines(run: RunResult) -> list[str]:
    lines = [
        _dump(
            {
                "v": SCHEMA_VERSION,
                "type": "header",
                "seed": run.seed,
                "strategy": run.strategy,
                "initial_eval_loss": run.initial_eval_loss,
                "completed": run.completed,
                "failure": run.failure,
            }
        )
    ]
    for r in run.records:
        lines.append(
            _dump(
                {
                    "v": SCHEMA_VERSION,
                    "type": "round",
                    "seed": run.seed,
                    "round": r.round_index,
                    "eval_loss": r.eval_loss,
                    "client_ranks": list(r.client_ranks),
                    "down_params": r.down_params,
                    "up_params": r.up_params,
                    "cumulative_params": r.cumulative_params,
                }
            )
        )
    return lines


def write_jsonl(runs: list[RunResult], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for run in runs:
            for line in to_jsonl_lines(run):
                f.write(line + "\n")


def read_jsonl(path: Path) -> list[RunResult]:
    """Parse a record stream. Raises ValueError naming path:line for bad
    JSON, an unknown schema version or record type, and a round record
    without its header or out of order."""
    runs: list[RunResult] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            kind = obj.get("type")
            if kind == "round" and (not runs or runs[-1].seed != obj["seed"]):
                raise ValueError(f"{path}:{lineno}: round record without header")
            if obj.get("v") != SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{lineno}: unknown schema version {obj.get('v')!r}"
                )
            if kind == "header":
                runs.append(
                    RunResult(
                        seed=obj["seed"],
                        strategy=obj["strategy"],
                        initial_eval_loss=obj["initial_eval_loss"],
                        completed=obj.get("completed", True),
                        failure=obj.get("failure"),
                    )
                )
            elif kind == "round":
                expected = len(runs[-1].records) + 1
                if obj["round"] != expected:
                    raise ValueError(
                        f"{path}:{lineno}: round {obj['round']} where round "
                        f"{expected} was expected"
                    )
                runs[-1].records.append(
                    RoundRecord(
                        round_index=obj["round"],
                        eval_loss=obj["eval_loss"],
                        client_ranks=tuple(obj["client_ranks"]),
                        down_params=obj["down_params"],
                        up_params=obj["up_params"],
                        cumulative_params=obj["cumulative_params"],
                        wall_clock=0.0,
                    )
                )
            else:
                raise ValueError(f"{path}:{lineno}: unknown record type")
    if not runs:
        raise ValueError(f"{path}: no runs found")
    return runs


def write_summary_csv(runs: list[RunResult], path: Path, label: str = "") -> None:
    """Per-seed rows plus a mean/std row across seeds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    finals = [r.final_eval_loss for r in runs]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            [
                "label", "strategy", "seed", "rounds", "initial_eval_loss",
                "final_eval_loss", "cumulative_params", "wall_clock_s", "completed",
            ]
        )
        for r in runs:
            w.writerow(
                [
                    label, r.strategy, r.seed, len(r.records),
                    f"{r.initial_eval_loss:.10g}", f"{r.final_eval_loss:.10g}",
                    r.cumulative_params,
                    f"{sum(rec.wall_clock for rec in r.records):.3f}",
                    r.completed,
                ]
            )
        mean = statistics.fmean(finals)
        std = statistics.stdev(finals) if len(finals) > 1 else 0.0
        w.writerow(
            [label, runs[0].strategy, "mean±std", "", "",
             f"{mean:.10g}±{std:.10g}", "", "", ""]
        )
