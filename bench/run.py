#!/usr/bin/env python3
"""Benchmark of hetlora-sim: round time, convergence and per-layer cost.

Usage, from the root of a checkout:

    python3 bench/run.py --workload single-worker [--seed N] [--seconds S]
                         [--trace 0|1] [--seeds 0,1,2]

Workloads: single-worker, strategy-sweep (see bench/README.md). The experiment's seeds come from --seeds (default 0,1,2;
0,1 for the sweep), so the convergence metrics are fixed for a commit;
--seed is the benchmark's own seed and picks the order in which those seeds
run and the seed that the sweep's independent replays re-check. After an
untimed warm-up, the workload is repeated while the next repetition would still end within
--seconds seconds, at least twice. With --trace 0 the last line of output
is a JSON object with the end-to-end metrics; with --trace 1 untraced and
traced repetitions alternate and it holds the per-layer metrics. Streams,
results and span traces go to bench/out/.
"""

import os
import sys

# BLAS is pinned before numpy is first imported, here and in the set-up probes.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SingleWorker, StrategySweep  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5
MIN_REPS = 2
# The sweep drops a seed rather than rounds: two seeds fill the two workers,
# and at 200 rounds every adapter run reaches half its initial loss.
DEFAULT_SEEDS = {"single-worker": "0,1,2", "strategy-sweep": "0,1"}
SINGLE_WORKER_STRATEGIES = ("hetlora", "recon_svd")

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that show a traced run exercised the mechanism a strategy is there
# for, over that strategy's runs: (SVD calls, rank drops) -> whether each
# must be positive (else zero). Both workloads run both strategies.
MECHANISM = {"hetlora": (False, True), "recon_svd": (True, False)}
# Per-layer metrics that must be positive on a workload.
USED_LAYERS = {"single-worker": (), "strategy-sweep": ("harness.run_experiment.ms",)}


def import_simulator() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "hetlora" / "__init__.py").is_file():
        raise SystemExit(f"bench: simulator source not found at {src}/hetlora")
    sys.path.insert(0, str(src))
    import hetlora
    from hetlora import baselines, cli, client, config, harness, linalg, lora, records, server, tasks

    if Path(hetlora.__file__).resolve().parent != (src / "hetlora").resolve():
        raise SystemExit(f"bench: imported hetlora from {hetlora.__file__}, not {src}")
    return SimpleNamespace(baselines=baselines, cli=cli, client=client, config=config,
                           harness=harness, linalg=linalg, lora=lora, records=records,
                           server=server, tasks=tasks)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def setup_seconds(mode: str, seeds) -> float:
    """One set-up in a fresh interpreter, timed inside it (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "src"), mode,
         ",".join(map(str, seeds))],
        env={**os.environ, **BLAS_ENV}, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def make_workload(name: str, hl, seeds, order, out_dir: Path):
    if name == "strategy-sweep":
        threads = min(2, os.cpu_count() or 1)
        return StrategySweep(hl, seeds, order, threads, order[0], out_dir)
    return SingleWorker(hl, SINGLE_WORKER_STRATEGIES, seeds, order, out_dir)


def timed(workload):
    t0 = perf_counter()
    results = workload.run()
    return perf_counter() - t0, results


def check_results(workload, results) -> list[str]:
    errors = []
    for cfg, run in results:
        errors += checks.check_run(run, cfg)
        errors += checks.check_initial_loss(run, workload.tasks[run.seed])
    return errors


def check_traced(tracer, workload, results) -> list[str]:
    """Every aggregation against the weighted factor sum, and every recorded
    eval loss against one recomputed from the global model of that round."""
    errors = []
    models = {}
    for key, before, updates, after in tracer.aggregates:
        errors += checks.check_aggregate(before, updates, after, f"aggregate {key}")
        models[key] = after.global_pair.b.array @ after.global_pair.a.array
    models.update((key, delta) for key, delta in tracer.dense_evals)
    for _, run in results:
        task = workload.tasks[run.seed]
        for rec in run.records:
            key = (run.strategy, run.seed, rec.round_index)
            if key not in models:
                errors.append(f"eval {key}: no global model traced")
                continue
            errors += checks.check_eval_loss(rec.eval_loss, models[key], task, f"eval {key}")
    return errors


def check_mechanisms(tracer, results) -> list[str]:
    errors = []
    svd_calls = tracer.calls_by_strategy("linalg.svd")
    for strategy, (want_svd, want_prunes) in MECHANISM.items():
        runs = [r for _, r in results if r.strategy == strategy]
        prunes = sum(checks.prune_events(r) for r in runs)
        for what, count, positive in (("linalg.svd calls", svd_calls.get(strategy, 0), want_svd),
                                      ("rank drops", prunes, want_prunes)):
            if (count > 0) != positive:
                errors.append(f"{strategy}: {what} = {count}, expected "
                              f"{'> 0' if positive else '0'}")
    return errors


def layer_metrics(tracer, workload, results) -> dict:
    totals = tracer.layer_totals()
    metrics = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "ms", "us_p50"):
            metrics[name] = totals.get(layer, {}).get(field, 0)
    harness_runs = results if "harness.run_experiment" in totals else []
    busy_ms = sum(rec.wall_clock for _, r in harness_runs for rec in r.records) * 1e3
    harness_ms = metrics["harness.run_experiment.ms"]
    metrics.update({
        "client.prunes": sum(checks.prune_events(r) for _, r in results),
        "baselines.self_ms": totals.get("baselines.run_strategy", {}).get("self_ms", 0.0),
        "baselines.comm_mparams": sum(r.cumulative_params for _, r in results) / 1e6,
        "records.jsonl_bytes": workload.jsonl_bytes(),
        "harness.busy_ms": busy_ms,
        "harness.parallel_efficiency":
            busy_ms / (harness_ms * workload.threads) if harness_ms else 0.0,
    })
    return metrics


def round_times_ms(results) -> list[float]:
    return [rec.wall_clock * 1e3 for _, r in results for rec in r.records]


def end_to_end(setups, run_s, rounds_ms, first) -> dict:
    """``first`` is the first repetition's results; ``rounds_ms`` pools the
    round times of every untraced repetition."""
    first = [r for _, r in first]
    adapter = [r for r in first if r.strategy != "full_ft"]
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": statistics.median(setups),
        # the mean, not the median: the host alternates between a fast and a
        # slow state for tens of seconds at a time, and the median of a few
        # repetitions jumps from one to the other
        "run_s": statistics.fmean(run_s),
        "round_ms_p50": statistics.median(rounds_ms),
        "peak_rss_mb": peak_kb / 1024,
        "final_eval_loss": statistics.fmean(r.final_eval_loss for r in first),
        # a run that never gets there counts as one round past its end (and
        # fails its checks)
        "rounds_to_half": statistics.fmean(
            checks.rounds_to_half(r) or len(r.records) + 1 for r in adapter),
        "comm_mparams": sum(r.cumulative_params for r in first) / 1e6,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="the benchmark's own seed")
    p.add_argument("--seconds", type=float, default=10.0, help="length of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seeds", help="experiment seeds (default: 0,1,2; 0,1 for the sweep)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    hl = import_simulator()

    seeds = tuple(int(s) for s in (args.seeds or DEFAULT_SEEDS[args.workload]).split(","))
    shift = args.seed % len(seeds)
    order = seeds[shift:] + seeds[:shift]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, hl, seeds, order, out_dir)
    owners = {"baselines": hl.baselines, "harness": hl.harness, "client": hl.client,
              "server": hl.server, "lora": hl.lora, "Rng": hl.linalg.Rng,
              "config": hl.config, "cli": hl.cli, "tasks": hl.tasks}

    setups = [] if args.trace else [setup_seconds(workload.setup_mode, seeds)
                                    for _ in range(SETUP_SAMPLES)]
    workload.prepare()
    workload.warm_up()
    errors: list[str] = []
    # Only the first repetition's results are kept, so that peak memory does
    # not grow with the number of repetitions that fit in the run.
    first = None
    run_s, traced_run_s, rounds_ms, layer_reps = [], [], [], []
    attempted = failed = 0
    digests = set()
    deadline = perf_counter() + args.seconds
    while True:
        el, results = timed(workload)
        run_s.append(el)
        rounds_ms += round_times_ms(results)
        first = first or results
        attempted += len(results)
        failed += sum(not r.completed for _, r in results)
        errors += check_results(workload, results)
        digests.add(workload.digest(results))
        if args.trace:
            tracer = Tracer(owners)
            with tracer:
                if workload.setup_mode == "single":
                    workload.prepare()
                el, results = timed(workload)
            traced_run_s.append(el)
            attempted += len(results)
            failed += sum(not r.completed for _, r in results)
            errors += check_results(workload, results)
            errors += check_traced(tracer, workload, results)
            errors += check_mechanisms(tracer, results)
            digests.add(workload.digest(results))
            layer_reps.append(layer_metrics(tracer, workload, results))
            if len(traced_run_s) == 1:
                tracer.write(out_dir / f"trace_seed{args.seed}.jsonl")
            del tracer
        # stop once the next repetition would end past the deadline
        last = run_s[-1] + (traced_run_s[-1] if traced_run_s else 0.0)
        if perf_counter() + last > deadline and (args.trace or len(run_s) >= MIN_REPS):
            break
    if len(digests) != 1:
        errors.append(f"repeated seeds gave {len(digests)} different JSONL streams")
    errors += workload.final_checks(first)

    if args.trace:
        metrics = {name: statistics.median(rep[name] for rep in layer_reps)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(traced_run_s)
                                       - statistics.median(run_s))
        errors += [f"{name} = 0, expected > 0" for name in USED_LAYERS[args.workload]
                   if not metrics[name] > 0]
        units = PER_LAYER
    else:
        metrics = end_to_end(setups, run_s, rounds_ms, first)
        units = END_TO_END
    # Reported but not gated: on strategy-sweep the round-time tail jumps
    # between about 22 and 40 ms for minutes at a time while the median stays
    # put (the two seed threads convoy on the interpreter lock across CPUs),
    # wider than any allowed bound.
    round_ms_p95 = statistics.quantiles(rounds_ms, n=20)[-1]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seeds": seeds,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "run_s": run_s, "traced_run_s": traced_run_s, "round_ms_p95": round_ms_p95,
              "errors": errors, **result}
    (out_dir / f"result_trace{args.trace}_seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"{args.workload}: seeds {','.join(map(str, order))}, "
          f"{len(run_s)} + {len(traced_run_s)} traced repetitions, env {json.dumps(env)}")
    for name in units:
        print(f"  {name:<30} {metrics[name]:.6g} {units[name]}")
    print(f"  {'round_ms_p95 (not gated)':<30} {round_ms_p95:.6g} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
