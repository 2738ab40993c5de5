"""Command-line interface: run / sweep / report.

`run` executes one config over its seeds and writes JSONL records plus a
CSV summary. `sweep` runs a family of uniquely labelled variants (decay-factor
ablation, strategy comparison with homogeneous ranks, each optionally at its
best grid learning rate) and writes a combined summary. `report` aggregates
existing JSONL record streams into a table, including rounds-to-target with
an 'X' for targets never achieved.

The output directory is --out, else the config's out_dir. The report
target is --target, else half the mean initial eval loss of a stream's runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import statistics
import sys
from pathlib import Path

from .config import (STRATEGY_TAGS, ConfigError, ExperimentConfig, _parse_int_list,
                     load_config)
from .harness import OUTPUT_FILES, run_experiment, select_learning_rate, write_outputs
from .records import RunResult, read_jsonl, rounds_to_target, summarize, write_csv

GAMMA_ABLATION = (1.0, 0.99, 0.95, 0.85)


def _apply_common_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        try:
            updates["seeds"] = _parse_int_list(args.seed)
        except ValueError:
            raise ConfigError("--seed expects comma-separated integers, "
                              f"got {args.seed!r}") from None
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "strategy", None) is not None:
        updates["strategy"] = args.strategy
    if args.threads is not None:
        updates["threads"] = args.threads
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _out_dir(out, *files: str) -> Path:
    """The directory out; a ConfigError if a file stands where it or a parent
    is, a directory where one of the files in it goes, or the filesystem
    refuses a name on the way to them."""
    out = Path(out)
    chain = (out, *out.parents)
    try:
        k = next(k for k, p in enumerate(chain) if p.exists())
        name_max = os.pathconf(chain[k], "PC_NAME_MAX")
        taken = [path for path in (out / name for name in files) if path.is_dir()]
    except OSError as exc:
        raise ConfigError(f"output path {exc.filename}: {exc.strerror}") from None
    if not chain[k].is_dir():
        raise ConfigError(f"output directory {out}: {chain[k]} is not a directory")
    # a probe below a directory still to be made sees no name too long
    for path in (*chain[:k], *(out / name for name in files)):
        if len(os.fsencode(path.name)) > name_max:
            raise ConfigError(f"output path {path}: name longer than {name_max} bytes")
    if taken:
        raise ConfigError(f"output file {taken[0]} is a directory")
    return out


def _print_summary(label: str, runs: list[RunResult], lr: float) -> dict:
    """Print the runs' summary line, plus one stderr line if a seed diverged,
    and return the summary."""
    s = summarize(runs)
    status = "" if s["completed"] else "  [INCOMPLETE]"
    print(
        f"{label:<24} final eval loss "
        f"{s['final_eval_loss_mean']:.6g} ± {s['final_eval_loss_std']:.3g} "
        f"over seeds {s['seeds']}{status}"
    )
    failed = [r for r in runs if not r.completed]
    if failed:
        print(f"{label}: seed {failed[0].seed} diverged at learning rate {lr:g}, "
              f"{failed[0].failure}", file=sys.stderr)
    return s


def cmd_run(args) -> int:
    cfg = _apply_common_overrides(load_config(args.config), args)
    out = _out_dir(cfg.out_dir, *OUTPUT_FILES)
    runs = run_experiment(cfg)
    jsonl, csv_path = write_outputs(runs, out, label=cfg.tag)
    _print_summary(cfg.tag, runs, cfg.learning_rate)
    print(f"records: {jsonl}")
    print(f"summary: {csv_path}")
    return 0 if all(r.completed for r in runs) else 1


def _strategy_variant(cfg: ExperimentConfig, tag: str) -> ExperimentConfig:
    """The config of a sweep strategy tag such as 'hetlora', 'homlora:5', 'full_ft'."""
    name, colon, rank = tag.partition(":")
    if not colon:
        return dataclasses.replace(cfg, strategy=name)
    if name != "homlora":
        raise ConfigError(f"--strategies: only homlora takes a rank, got {tag!r}")
    try:
        rank = int(rank)
    except ValueError:
        raise ConfigError(
            f"--strategies: homlora takes an integer rank, got {tag!r}") from None
    return dataclasses.replace(cfg, strategy=name, homlora_rank=rank)


def _variants(cfg: ExperimentConfig, args) -> dict[str, ExperimentConfig]:
    """The sweep's configs by label: gamma_<g> for a decay-ablation arm, the
    run's strategy tag for a --strategies entry. A label given twice is a
    ConfigError."""
    variants = {}
    if args.gamma_ablation:
        for g in GAMMA_ABLATION:
            variants[f"gamma_{g:g}"] = dataclasses.replace(cfg, strategy="hetlora",
                                                           decay=g)
    for tag in args.strategies.split(",") if args.strategies else ():
        vcfg = _strategy_variant(cfg, tag.strip())
        if vcfg.tag in variants:
            raise ConfigError(f"--strategies: {vcfg.tag} is given twice")
        variants[vcfg.tag] = vcfg
    return variants


def cmd_sweep(args) -> int:
    cfg = _apply_common_overrides(load_config(args.config), args)
    summary = Path(cfg.out_dir) / "sweep_summary.csv"
    out = _out_dir(summary.parent, summary.name)
    variants = _variants(cfg, args)
    if not variants:
        print("sweep: nothing to do (pass --gamma-ablation or --strategies)",
              file=sys.stderr)
        return 2
    for label in variants:
        _out_dir(out / label, *OUTPUT_FILES)

    rows = []
    for label, vcfg in variants.items():
        if args.lr_grid:
            lr, runs = select_learning_rate(vcfg)
        else:
            lr, runs = vcfg.learning_rate, run_experiment(vcfg)
        write_outputs(runs, out / label, label=label)
        s = _print_summary(label, runs, lr)
        rows.append([label, s["strategy"], lr, f"{s['final_eval_loss_mean']:.10g}",
                     f"{s['final_eval_loss_std']:.10g}", s["completed"]])
    write_csv(summary, ["label", "strategy", "learning_rate", "final_eval_loss_mean",
                        "final_eval_loss_std", "completed"], rows)
    print(f"sweep summary: {summary}")
    return 0 if all(row[-1] for row in rows) else 1


def _finite_positive(text: str) -> float:
    """The argparse type of a report target: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _stream_label(path: Path) -> str:
    """A records.jsonl's directory name, or else the stream's <dir>/<stem>."""
    if path.name == "records.jsonl" and path.parent.name:
        return path.parent.name
    return str(Path(path.parent.name, path.stem))


def cmd_report(args) -> int:
    if args.csv:
        _out_dir(Path(args.csv).parent, Path(args.csv).name)
    paths: list[Path] = []
    for p in map(Path, args.records):
        try:
            if p.is_dir():
                paths.extend(sorted(p.rglob("*.jsonl")))
            elif p.is_file():
                paths.append(p)
            else:
                print(f"report: no such file or directory: {p}", file=sys.stderr)
                return 2
        except OSError as exc:
            raise ConfigError(f"report path {p}: {exc.strerror}") from None
    if not paths:
        print("report: no record streams found", file=sys.stderr)
        return 2

    rows = []
    for path in paths:
        try:
            runs = read_jsonl(path)
        except ValueError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        target = (args.target if args.target is not None
                  else 0.5 * statistics.fmean(r.initial_eval_loss for r in runs))
        hits = [rounds_to_target(r, target) for r in runs]
        # the params a run had spent when it met the target, 0 at round 0
        comms = [None if h is None else r.records[h - 1].cumulative_params if h else 0
                 for r, h in zip(runs, hits)]
        s = summarize(runs)
        rows.append({
            "label": _stream_label(path),
            "strategy": s["strategy"],
            "final_mean": s["final_eval_loss_mean"],
            "final_std": s["final_eval_loss_std"],
            "rounds_to_target": "/".join("X" if h is None else str(h) for h in hits),
            "comm_to_target": statistics.fmean(comms) if None not in comms else None,
            "target": target,
        })

    # ratios need a single full_ft baseline that spent params to meet the
    # target; with none, several, or one that missed it, print absolute params
    full = [row for row in rows if row["strategy"] == "full_ft"]
    full_comm = full[0]["comm_to_target"] if len(full) == 1 else None
    table = [("label", "strategy", "final loss", "rounds-to-target",
              "comm ratio vs full" if full_comm else "comm to target")]
    for row in rows:
        if row["comm_to_target"] is None:
            ratio = "X"
        elif full_comm:
            ratio = f"{row['comm_to_target'] / full_comm:.4g}"
        else:
            ratio = f"{row['comm_to_target']:.4g} params"
        table.append((row["label"], row["strategy"],
                      f"{row['final_mean']:.6g} ± {row['final_std']:.3g}",
                      row["rounds_to_target"], ratio))
    # each column as wide as its widest cell, two spaces apart
    widths = [max(map(len, column)) for column in zip(*table)]
    for line in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    if args.csv:
        out = Path(args.csv)
        write_csv(out, ["label", "strategy", "final_eval_loss_mean",
                        "final_eval_loss_std", "rounds_to_target", "comm_to_target",
                        "target"],
                  ([row["label"], row["strategy"], f"{row['final_mean']:.10g}",
                    f"{row['final_std']:.10g}", row["rounds_to_target"],
                    row["comm_to_target"], f"{row['target']:.10g}"] for row in rows))
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
                       help="accepted (>= 1) but ignored: seeds always run in "
                       "order in one thread")

    p_run = sub.add_parser("run", help="run one experiment config")
    common(p_run)
    p_run.add_argument("--strategy", choices=STRATEGY_TAGS)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a family of config variants")
    common(p_sweep)
    p_sweep.add_argument("--gamma-ablation", action="store_true",
                         help="sweep the pruning decay factor over "
                         "{1, 0.99, 0.95, 0.85}")
    p_sweep.add_argument("--strategies",
                         help="comma-separated strategy tags "
                         "(e.g. hetlora,homlora:2,homlora:16,full_ft,recon_svd)")
    p_sweep.add_argument("--lr-grid", action="store_true",
                         help="grid-search the learning rate per variant")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_rep = sub.add_parser("report", help="summarize JSONL record streams")
    p_rep.add_argument("records", nargs="+", help="JSONL files or directories")
    p_rep.add_argument("--target", type=_finite_positive, default=None,
                       help="absolute eval-loss target (default: half the mean "
                       "initial eval loss of each stream's runs)")
    p_rep.add_argument("--csv", help="also write the table as CSV")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
