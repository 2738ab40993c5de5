"""The benchmark's traced runs wrap simulator functions by name (see
bench/tracing.py), and its plain-FedAvg replay (bench/checks.py) redraws
selections and mini-batches step by step; its other checks read the
simulator's tasks, server states and eval models through `.array`. A
refactor that drops or renames a traced name, changes a type the checks
read, or moves a stream away from the replay, fails here, in the unit
suite, rather than in a benchmark run; so does an import kept alive for a
name the tracer no longer wraps, and a library function that only tests
call. The bench modules are loaded read-only, from their files."""

import ast
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


def keep_alive_imports(source):
    """The names a module imports on a `# noqa: F401` line and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if "noqa: F401" in lines[alias.lineno - 1]}
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_keep_alive_imports_are_traced_names():
    # a name imported only for the tracer to wrap must be wrapped at that
    # module: once TRACED drops it, the import is dead and is named here
    traced = {(owner, attr) for owner, attr, _ in load_bench("tracing").TRACED}
    src = Path(client.__file__).parent
    kept = [(path.stem, name) for path in sorted(src.glob("*.py"))
            for name in keep_alive_imports(path.read_text(encoding="utf-8"))]
    assert [f"{m}.{n}" for m, n in kept if (m, n) not in traced] == []


def test_keep_alive_imports_skips_used_and_unmarked_names():
    source = ("from a import x, y  # noqa: F401\n"
              "from b import (\n    z,  # noqa: F401\n    v,\n)\n"
              "from c import w\nprint(y, w)\n")
    assert keep_alive_imports(source) == ["x", "z"]


def test_every_library_function_is_named_in_the_library_or_traced():
    # a top-level function that no module of the package names is reached
    # from tests alone, unless the tracer calls it through an attribute it
    # wraps; once TRACED drops that attribute, the function is named here
    traced = [getattr(OWNERS[owner], attr)
              for owner, attr, _ in load_bench("tracing").TRACED]
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(client.__file__).parent.glob("*.py"))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    unnamed = [(m, node.name) for m, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name not in named]
    assert [f"{m}.{f}" for m, f in unnamed
            if getattr(importlib.import_module(f"hetlora.{m}"), f) not in traced] == []


def test_plain_fedavg_replay_matches_homlora_run():
    checks = load_bench("checks")
    # the replay covers the first 5 rounds, which do not depend on the rest
    cfg = dataclasses.replace(config.load_config("default"), strategy="homlora",
                              homlora_rank=2, rounds=5)
    task = tasks.generate_task(dataclasses.replace(cfg.task, seed=0))
    run = baselines.run_strategy(cfg, 0, task)
    replayed = checks.fedavg_replay(cfg, task, 0, 5, linalg.seeded_rng)
    assert checks.check_replay(run, replayed) == []


@pytest.mark.parametrize("strategy", ["hetlora", "homlora", "full_ft", "recon_svd"])
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
    dense = strategy in ("full_ft", "recon_svd")
    assert sorted(models) == ([0, 1, 2, 3] if dense else [1, 2, 3])
    # one selection a round; one aggregation a round for factor strategies,
    # and one dense eval per eval for dense ones
    assert sum(tracer.calls_by_strategy("server.select_clients").values()) == 3
    assert len(tracer.aggregates) == (0 if dense else 3)
    assert len(tracer.dense_evals) == (4 if dense else 0)
    for rec in run.records:
        assert checks.check_eval_loss(rec.eval_loss, models[rec.round_index], task,
                                      str(rec.round_index)) == []
