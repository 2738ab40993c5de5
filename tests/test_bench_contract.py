"""The benchmark's traced runs wrap simulator functions by name (see
bench/tracing.py). A refactor that drops or renames one of those names
fails here, in the unit suite, rather than in a benchmark run."""

import importlib.util
from pathlib import Path

from hetlora import baselines, cli, client, config, harness, linalg, lora, server, tasks

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the objects bench/run.py hands the tracer as owners of the traced names
OWNERS = {"baselines": baselines, "harness": harness, "client": client,
          "server": server, "lora": lora, "Rng": linalg.Rng, "config": config,
          "cli": cli, "tasks": tasks}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracing().TRACED
    assert traced
    missing = [f"{owner}.{attr}" for owner, attr, _ in traced
               if owner not in OWNERS or not callable(getattr(OWNERS[owner], attr, None))]
    assert missing == []
