"""Command-line interface: run / sweep / report.

`run` executes one config over its seeds and writes JSONL records plus a
CSV summary. `sweep` runs a family of variants (decay-factor ablation,
homogeneous rank sweep, strategy comparison, learning-rate grid) and
writes a combined summary. `report` aggregates existing JSONL record
streams into a table, including rounds-to-target with an 'X' for targets
never achieved.

The default output directory can be set with the HETLORA_OUT_DIR
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import statistics
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .harness import run_experiment, select_learning_rate, summarize, write_outputs
from .records import RunResult, read_jsonl, rounds_to_target

GAMMA_ABLATION = (1.0, 0.99, 0.95, 0.85)


def _default_out() -> str | None:
    return os.environ.get("HETLORA_OUT_DIR")


def _parse_seeds(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


def _apply_common_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seeds"] = _parse_seeds(args.seed)
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "strategy", None) is not None:
        updates["strategy"] = args.strategy
    if args.threads is not None:
        updates["threads"] = args.threads
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _print_summary(label: str, runs: list[RunResult]) -> None:
    s = summarize(runs)
    status = "" if s["completed"] else "  [INCOMPLETE]"
    print(
        f"{label:<24} final eval loss "
        f"{s['final_eval_loss_mean']:.6g} ± {s['final_eval_loss_std']:.3g} "
        f"over seeds {s['seeds']}{status}"
    )


def cmd_run(args) -> int:
    cfg = _apply_common_overrides(load_config(args.config), args)
    runs = run_experiment(cfg)
    out = Path(cfg.out_dir)
    jsonl, csv_path = write_outputs(runs, out, name=args.name, label=cfg.strategy)
    _print_summary(cfg.strategy, runs)
    print(f"records: {jsonl}")
    print(f"summary: {csv_path}")
    return 0 if all(r.completed for r in runs) else 1


def _strategy_variant(cfg: ExperimentConfig, tag: str) -> tuple[str, ExperimentConfig]:
    """Parse a sweep strategy tag such as 'hetlora', 'homlora:5', 'full_ft'."""
    if ":" in tag:
        name, _, arg = tag.partition(":")
        if name != "homlora":
            raise ConfigError(f"only homlora takes a rank argument, got {tag!r}")
        return f"homlora_r{arg}", dataclasses.replace(
            cfg, strategy="homlora", homlora_rank=int(arg)
        )
    return tag, dataclasses.replace(cfg, strategy=tag)


def cmd_sweep(args) -> int:
    cfg = _apply_common_overrides(load_config(args.config), args)
    out = Path(cfg.out_dir)
    variants: list[tuple[str, ExperimentConfig]] = []
    if args.gamma_ablation:
        for g in GAMMA_ABLATION:
            variants.append(
                (f"gamma_{g:g}", dataclasses.replace(cfg, strategy="hetlora", decay=g))
            )
    if args.ranks:
        for r in _parse_seeds(args.ranks):
            variants.append(
                (
                    f"homlora_r{r}",
                    dataclasses.replace(cfg, strategy="homlora", homlora_rank=r),
                )
            )
    if args.strategies:
        for tag in args.strategies.split(","):
            variants.append(_strategy_variant(cfg, tag.strip()))
    if not variants:
        print("sweep: nothing to do (pass --gamma-ablation, --ranks, or --strategies)",
              file=sys.stderr)
        return 2

    rows = []
    completed = True
    for label, vcfg in variants:
        if args.lr_grid:
            lr, _ = select_learning_rate(vcfg)
            vcfg = dataclasses.replace(vcfg, learning_rate=lr)
        runs = run_experiment(vcfg)
        write_outputs(runs, out / label, label=label)
        _print_summary(label, runs)
        s = summarize(runs)
        completed = completed and s["completed"]
        rows.append(
            [
                label, s["strategy"], vcfg.learning_rate,
                f"{s['final_eval_loss_mean']:.10g}",
                f"{s['final_eval_loss_std']:.10g}", s["completed"],
            ]
        )
    summary = out / "sweep_summary.csv"
    summary.parent.mkdir(parents=True, exist_ok=True)
    with open(summary, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["label", "strategy", "learning_rate", "final_eval_loss_mean",
             "final_eval_loss_std", "completed"]
        )
        w.writerows(rows)
    print(f"sweep summary: {summary}")
    return 0 if completed else 1


def _target_for(runs: list[RunResult], args) -> float:
    if args.target is not None:
        return args.target
    init = statistics.fmean(r.initial_eval_loss for r in runs)
    return args.target_fraction * init


def cmd_report(args) -> int:
    paths: list[Path] = []
    for p in args.records:
        p = Path(p)
        if p.is_dir():
            paths.extend(sorted(p.rglob("*.jsonl")))
        elif p.is_file():
            paths.append(p)
        else:
            print(f"report: no such file or directory: {p}", file=sys.stderr)
            return 2
    if not paths:
        print("report: no record streams found", file=sys.stderr)
        return 2

    rows = []
    comm_to_target: dict[str, float | None] = {}
    for path in paths:
        runs = read_jsonl(path)
        target = _target_for(runs, args)
        hits = [rounds_to_target(r, target) for r in runs]
        finals = [r.final_eval_loss for r in runs]
        comms = []
        for r, h in zip(runs, hits):
            if h is None:
                comms.append(None)
            elif h == 0:
                comms.append(0)
            else:
                comms.append(r.records[h - 1].cumulative_params)
        label = path.parent.name if path.parent.name else path.stem
        name = runs[0].strategy
        comm_to_target[name] = (
            statistics.fmean(c for c in comms) if all(c is not None for c in comms)
            else None
        )
        rows.append(
            {
                "label": label,
                "strategy": name,
                "final_mean": statistics.fmean(finals),
                "final_std": statistics.stdev(finals) if len(finals) > 1 else 0.0,
                "rounds_to_target": "/".join(
                    "X" if h is None else str(h) for h in hits
                ),
                "comm_to_target": comm_to_target[name],
                "target": target,
            }
        )

    full_comm = comm_to_target.get("full_ft")
    header = (
        f"{'label':<20}{'strategy':<16}{'final loss':<24}"
        f"{'rounds-to-target':<18}{'comm ratio vs full':<18}"
    )
    print(header)
    for row in rows:
        if row["comm_to_target"] is None:
            ratio = "X"
        elif full_comm:
            ratio = f"{row['comm_to_target'] / full_comm:.4g}"
        else:
            ratio = f"{row['comm_to_target']:.4g} params"
        print(
            f"{row['label']:<20}{row['strategy']:<16}"
            f"{row['final_mean']:.6g} ± {row['final_std']:.3g}"
            f"{'':<4}{row['rounds_to_target']:<18}{ratio:<18}"
        )
    if args.csv:
        out = Path(args.csv)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(
                ["label", "strategy", "final_eval_loss_mean", "final_eval_loss_std",
                 "rounds_to_target", "comm_to_target", "target"]
            )
            for row in rows:
                w.writerow(
                    [row["label"], row["strategy"], f"{row['final_mean']:.10g}",
                     f"{row['final_std']:.10g}", row["rounds_to_target"],
                     row["comm_to_target"], f"{row['target']:.10g}"]
                )
        print(f"report csv: {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetlora-sim",
        description="Deterministic simulator for federated fine-tuning with "
        "heterogeneous-rank LoRA adapters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="config file path or bundled name (e.g. 'default')")
        p.add_argument("--seed", help="comma-separated seed list override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="parallel seed workers")

    p_run = sub.add_parser("run", help="run one experiment config")
    common(p_run)
    p_run.add_argument("--strategy", choices=("hetlora", "homlora", "full_ft",
                                              "recon_svd"))
    p_run.add_argument("--name", default="records", help="output file stem")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a family of config variants")
    common(p_sweep)
    p_sweep.add_argument("--gamma-ablation", action="store_true",
                         help="sweep the pruning decay factor over "
                         "{1, 0.99, 0.95, 0.85}")
    p_sweep.add_argument("--ranks", help="comma-separated homogeneous ranks")
    p_sweep.add_argument("--strategies",
                         help="comma-separated strategy tags "
                         "(e.g. hetlora,homlora:2,homlora:16,full_ft,recon_svd)")
    p_sweep.add_argument("--lr-grid", action="store_true",
                         help="grid-search the learning rate per variant")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_rep = sub.add_parser("report", help="summarize JSONL record streams")
    p_rep.add_argument("records", nargs="+", help="JSONL files or directories")
    p_rep.add_argument("--target", type=float, default=None,
                       help="absolute eval-loss target")
    p_rep.add_argument("--target-fraction", type=float, default=0.5,
                       help="target as a fraction of initial eval loss "
                       "(default 0.5; ignored when --target is given)")
    p_rep.add_argument("--csv", help="also write the table as CSV")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # output dir precedence: --out flag, then HETLORA_OUT_DIR, then config
    if getattr(args, "out", None) is None and args.command in ("run", "sweep"):
        args.out = _default_out()
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
