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


# Each record type's JSON keys besides "v" and "type": the attribute a key
# holds, of the RunResult for a header and of the RoundRecord for a round
# (None: the run's seed), and its JSON type. A header's "completed" and
# "failure" are optional.
_FIELDS = {
    "header": {"seed": (None, int), "strategy": ("strategy", str),
               "initial_eval_loss": ("initial_eval_loss", float),
               "completed": ("completed", bool),
               "failure": ("failure", (str, type(None)))},
    "round": {"seed": (None, int), "round": ("round_index", int),
              "eval_loss": ("eval_loss", float), "client_ranks": ("client_ranks", tuple),
              "down_params": ("down_params", int), "up_params": ("up_params", int),
              "cumulative_params": ("cumulative_params", int)},
}
_OPTIONAL = ("completed", "failure")


def _line(kind: str, source, seed: int) -> str:
    obj = {key: seed if attr is None else getattr(source, attr)
           for key, (attr, _) in _FIELDS[kind].items()}
    obj.update(v=SCHEMA_VERSION, type=kind)
    # strict JSON: a NaN or infinite value raises instead of being written
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def to_jsonl_lines(run: RunResult) -> list[str]:
    return [_line("header", run, run.seed)] + [_line("round", r, run.seed)
                                                for r in run.records]


def write_jsonl(runs: list[RunResult], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for run in runs:
            for line in to_jsonl_lines(run):
                f.write(line + "\n")


def _typed(value, want) -> bool:
    # a bool is no int, a float may be written as an int, a tuple is a JSON
    # array of ints
    if isinstance(value, bool):
        return want is bool
    if want is float:
        return isinstance(value, (int, float))
    if want is tuple:
        return isinstance(value, list) and all(_typed(v, int) for v in value)
    return isinstance(value, want)


def read_jsonl(path: Path) -> list[RunResult]:
    """Parse a record stream. Raises ValueError naming path:line for bad
    JSON, a line that is not a JSON object, an unknown schema version or
    record type, a record missing a field or with a field of the wrong
    type, and a round record without its header or out of order."""
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
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            kind = obj.get("type")
            if kind == "round" and not runs:
                raise ValueError(f"{path}:{lineno}: round record without header")
            if obj.get("v") != SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{lineno}: unknown schema version {obj.get('v')!r}"
                )
            if kind not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown record type")
            values = {}
            for key, (attr, want) in _FIELDS[kind].items():
                if key not in obj:
                    if key in _OPTIONAL:
                        continue
                    raise ValueError(
                        f"{path}:{lineno}: {kind} record without field {key!r}")
                value = obj[key]
                if not _typed(value, want):
                    raise ValueError(f"{path}:{lineno}: {kind} field {key!r} has "
                                     f"the wrong type: {value!r}")
                if attr is None:
                    seed = value
                else:
                    values[attr] = tuple(value) if want is tuple else value
            if kind == "header":
                runs.append(RunResult(seed=seed, **values))
                continue
            if runs[-1].seed != seed:
                raise ValueError(f"{path}:{lineno}: round record without header")
            expected = len(runs[-1].records) + 1
            if values["round_index"] != expected:
                raise ValueError(
                    f"{path}:{lineno}: round {values['round_index']} where round "
                    f"{expected} was expected"
                )
            runs[-1].records.append(RoundRecord(**values, wall_clock=0.0))
    if not runs:
        raise ValueError(f"{path}: no runs found")
    return runs


def summarize(runs: list[RunResult]) -> dict:
    """Seeds and the mean and std of final eval losses across runs: the
    summary the CLI prints and the CSV's last row."""
    finals = [r.final_eval_loss for r in runs]
    return {
        "strategy": runs[0].strategy,
        "seeds": [r.seed for r in runs],
        "final_eval_loss_mean": statistics.fmean(finals),
        "final_eval_loss_std": statistics.stdev(finals) if len(finals) > 1 else 0.0,
        "completed": all(r.completed for r in runs),
    }


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header row and `rows` as CSV, making the parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_summary_csv(runs: list[RunResult], path: Path, label: str = "") -> None:
    """Per-seed rows plus a mean/std row across seeds."""
    s = summarize(runs)
    rows = [[label, r.strategy, r.seed, len(r.records), f"{r.initial_eval_loss:.10g}",
             f"{r.final_eval_loss:.10g}", r.cumulative_params,
             f"{sum(rec.wall_clock for rec in r.records):.3f}", r.completed]
            for r in runs]
    rows.append([label, s["strategy"], "mean±std", "", "",
                 f"{s['final_eval_loss_mean']:.10g}±{s['final_eval_loss_std']:.10g}",
                 "", "", ""])
    write_csv(path, ["label", "strategy", "seed", "rounds", "initial_eval_loss",
                     "final_eval_loss", "cumulative_params", "wall_clock_s",
                     "completed"], rows)
