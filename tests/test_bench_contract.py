"""The benchmark's traced runs wrap simulator functions by name (see
bench/tracing.py), and its plain-FedAvg replay (bench/checks.py) redraws
selections and mini-batches step by step; its other checks read the
simulator's tasks, server states and eval models through `.array`. A
refactor that drops or renames a traced name, changes a type the checks
read, or moves a stream away from the replay, fails here, in the unit
suite, rather than in a benchmark run. The bench modules are loaded
read-only, from their files."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from hetlora import baselines, cli, client, config, harness, linalg, lora, server, tasks

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the objects bench/run.py hands the tracer as owners of the traced names
OWNERS = {"baselines": baselines, "harness": harness, "client": client,
          "server": server, "lora": lora, "Rng": linalg.Rng, "config": config,
          "cli": cli, "tasks": tasks}


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_bench("tracing").TRACED
    assert traced
    missing = [f"{owner}.{attr}" for owner, attr, _ in traced
               if owner not in OWNERS or not callable(getattr(OWNERS[owner], attr, None))]
    assert missing == []


def test_plain_fedavg_replay_matches_homlora_run():
    checks = load_bench("checks")
    # the replay covers the first 5 rounds, which do not depend on the rest
    cfg = dataclasses.replace(config.load_config("default"), strategy="homlora",
                              homlora_rank=2, rounds=5)
    task = tasks.generate_task(dataclasses.replace(cfg.task, seed=0))
    run = baselines.run_strategy(cfg, 0, task)
    replayed = checks.fedavg_replay(cfg, task, 0, 5, linalg.seeded_rng)
    assert checks.check_replay(run, replayed) == []


@pytest.mark.parametrize("strategy", ["hetlora", "full_ft"])
def test_output_checks_pass_on_a_traced_run(strategy):
    # what bench/run.py checks after a traced run: the initial loss, every
    # aggregation, and every recorded eval loss against the traced model
    checks = load_bench("checks")
    cfg = dataclasses.replace(config.load_config("default"), strategy=strategy,
                              rounds=3)
    task = tasks.generate_task(dataclasses.replace(cfg.task, seed=0))
    with load_bench("tracing").Tracer(OWNERS) as tracer:
        run = baselines.run_strategy(cfg, 0, task)
    assert run.completed and len(run.records) == 3
    assert checks.check_initial_loss(run, task) == []
    models = {}
    for key, before, updates, after in tracer.aggregates:
        assert checks.check_aggregate(before, updates, after, str(key)) == []
        models[key[2]] = after.global_pair.b.array @ after.global_pair.a.array
    models.update((key[2], delta) for key, delta in tracer.dense_evals)
    # a dense run's initial eval is traced too, as round 0
    assert sorted(models) == ([0, 1, 2, 3] if strategy == "full_ft" else [1, 2, 3])
    for rec in run.records:
        assert checks.check_eval_loss(rec.eval_loss, models[rec.round_index], task,
                                      str(rec.round_index)) == []
