"""The benchmark's two workloads.

Each workload drives the simulator only through its public entry points
(config.load_config, tasks.generate_task, baselines.run_strategy,
harness.run_experiment and cli.main) and returns, for every run it made,
the pair (config the run was made with, RunResult).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import shutil
import statistics
from pathlib import Path

import checks
from tracing import strategy_tag

SWEEP_STRATEGIES = "hetlora,homlora:2,homlora:16,full_ft,recon_svd"
REPLAY_ROUNDS = 20
WARMUP_ROUNDS = 20


class SingleWorker:
    """hetlora and recon_svd on the bundled default config, one worker: for
    each seed in turn, each strategy through baselines.run_strategy."""

    def __init__(self, hl, strategies, seeds, order, out_dir: Path):
        self.hl = hl
        self.strategies = tuple(strategies)
        self.seeds = tuple(seeds)
        self.order = tuple(order)
        self.out_dir = out_dir
        self.threads = 1
        self.setup_mode = "single"

    def prepare(self) -> None:
        """Load the config and generate each seed's task (the set-up the
        workload does itself)."""
        cfg = self.hl.config.load_config("default")
        self.cfgs = {
            strategy: dataclasses.replace(cfg, strategy=strategy, seeds=self.seeds, threads=1,
                                          out_dir=str(self.out_dir))
            for strategy in self.strategies
        }
        self.tasks = {
            s: self.hl.tasks.generate_task(dataclasses.replace(cfg.task, seed=s))
            for s in self.seeds
        }

    def warm_up(self) -> None:
        warm_up(self.hl, self.cfgs.values(), self.order[0], self.tasks[self.order[0]])

    def run(self):
        run_strategy = self.hl.baselines.run_strategy
        return [(cfg, run_strategy(cfg, s, self.tasks[s]))
                for s in self.order for cfg in self.cfgs.values()]

    def digest(self, results) -> str:
        """sha256 of the JSONL the runs serialise to, in (strategy, seed) order."""
        h = hashlib.sha256()
        for _, run in sorted(results, key=lambda pair: (pair[1].strategy, pair[1].seed)):
            for line in self.hl.records.to_jsonl_lines(run):
                h.update(line.encode() + b"\n")
        return h.hexdigest()

    def jsonl_bytes(self) -> int:
        return 0  # the workload writes no streams

    def final_checks(self, results) -> list[str]:
        return []


def warm_up(hl, cfgs, seed: int, task) -> None:
    """Each config's strategy for a few rounds, untimed and unchecked, so the
    first timed repetition does not pay for first calls."""
    for cfg in cfgs:
        hl.baselines.run_strategy(dataclasses.replace(cfg, rounds=WARMUP_ROUNDS), seed, task)


class StrategySweep:
    """cli sweep over five strategies with the seeds fanned out over
    harness workers, then cli report over the streams it wrote."""

    def __init__(self, hl, seeds, order, threads: int, check_seed: int, out_dir: Path):
        self.hl = hl
        self.seeds = tuple(seeds)
        self.order = tuple(order)
        self.threads = threads
        self.check_seed = check_seed
        self.out_dir = out_dir
        self.streams = out_dir / "streams"
        self.setup_mode = "sweep"
        self.errors: list[str] = []

    def prepare(self) -> None:
        # tasks for the output checks only; the sweep generates its own
        base = self.hl.config.load_config("default")
        self.tasks = {
            s: self.hl.tasks.generate_task(dataclasses.replace(base.task, seed=s))
            for s in self.seeds
        }
        self.warm_cfgs = []
        for tag in SWEEP_STRATEGIES.split(","):
            name, _, rank = tag.partition(":")
            extra = {"homlora_rank": int(rank)} if rank else {}
            self.warm_cfgs.append(dataclasses.replace(base, strategy=name, **extra))

    def warm_up(self) -> None:
        warm_up(self.hl, self.warm_cfgs, self.order[0], self.tasks[self.order[0]])

    def run(self):
        cli = self.hl.cli
        if self.streams.exists():
            shutil.rmtree(self.streams)
        captured = []
        run_experiment = cli.run_experiment

        def capture(cfg):
            runs = run_experiment(cfg)
            captured.append((cfg, runs))
            return runs

        cli.run_experiment = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc_sweep = cli.main([
                    "sweep", "--config", "default", "--strategies", SWEEP_STRATEGIES,
                    "--threads", str(self.threads), "--seed", ",".join(map(str, self.order)),
                    "--out", str(self.streams),
                ])
                rc_report = cli.main(["report", str(self.streams), "--csv",
                                      str(self.out_dir / "report.csv")])
        finally:
            cli.run_experiment = run_experiment
        if (rc_sweep, rc_report) != (0, 0):
            self.errors.append(f"sweep exit {rc_sweep}, report exit {rc_report}")
        want = [t.replace(":", "_r") for t in SWEEP_STRATEGIES.split(",")]
        got = [strategy_tag(cfg) for cfg, _ in captured]
        if got != want:
            self.errors.append(f"sweep ran {got}, expected {want}")
        return [(cfg, r) for cfg, runs in captured for r in runs]

    def digest(self, results) -> str:
        h = hashlib.sha256()
        for path in sorted(self.streams.rglob("*.jsonl")):
            h.update(path.relative_to(self.streams).as_posix().encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def jsonl_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.streams.rglob("*.jsonl"))

    def final_checks(self, results) -> list[str]:
        errors = list(self.errors)
        errors += self._check_report(results)
        by_tag = {(r.strategy, r.seed): (cfg, r) for cfg, r in results}
        s = self.check_seed

        cfg, run = by_tag[("homlora_r2", s)]
        replayed = checks.fedavg_replay(cfg, self.tasks[s], s, REPLAY_ROUNDS,
                                        self.hl.linalg.seeded_rng)
        errors += checks.check_replay(run, replayed)

        # the sweep wrote this seed's stream with several workers; one worker
        # must give the same bytes
        cfg, _ = by_tag[("hetlora", s)]
        alone = self.hl.harness.run_experiment(dataclasses.replace(cfg, seeds=(s,), threads=1))
        lines = self.hl.records.to_jsonl_lines(alone[0])
        written = [line for line in (self.streams / "hetlora" / "records.jsonl")
                   .read_text().splitlines() if json.loads(line)["seed"] == s]
        if written != lines:
            errors.append(f"hetlora seed {s}: {self.threads}-worker stream differs "
                          "from a 1-worker run")
        return errors

    def _check_report(self, results) -> list[str]:
        """report's rounds-to-target against the benchmark's own count, with
        report's target: half the mean initial loss of a stream's runs."""
        errors = []
        by_label = {}
        for _, r in results:
            by_label.setdefault(r.strategy, []).append(r)
        with open(self.out_dir / "report.csv", newline="") as f:
            rows = {row["label"]: row for row in csv.DictReader(f)}
        if sorted(rows) != sorted(by_label):
            return [f"report rows {sorted(rows)} != streams {sorted(by_label)}"]
        for label, runs in by_label.items():
            target = 0.5 * statistics.fmean(r.initial_eval_loss for r in runs)
            hits = [next((str(t) for t, v in enumerate(r.eval_curve()) if v <= target), "X")
                    for r in runs]
            if rows[label]["rounds_to_target"] != "/".join(hits):
                errors.append(f"report {label}: rounds-to-target "
                              f"{rows[label]['rounds_to_target']} != {'/'.join(hits)}")
            mean = statistics.fmean(r.final_eval_loss for r in runs)
            if not checks.close(float(rows[label]["final_eval_loss_mean"]), mean):
                errors.append(f"report {label}: final loss mean differs")
        return errors
