"""The benchmark's output checks pass on clean streams and fail on streams
corrupted in one place each, so no check passes vacuously.

Run from the root of a checkout: python3 -m pytest bench/test_checks.py
"""

import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
from hetlora.baselines import run_strategy  # noqa: E402
from hetlora.config import load_config  # noqa: E402
from hetlora.linalg import Matrix, seeded_rng  # noqa: E402
from hetlora.lora import LoraPair  # noqa: E402
from hetlora.server import ServerState, aggregate  # noqa: E402
from hetlora.tasks import generate_task  # noqa: E402

STRATEGIES = {
    "hetlora": {},
    "homlora": {"homlora_rank": 2},
    "full_ft": {},
    "recon_svd": {},
}


@functools.cache
def smoke(strategy):
    cfg = dataclasses.replace(load_config(str(ROOT / "configs" / "smoke.cfg")),
                              strategy=strategy, **STRATEGIES[strategy])
    task = generate_task(dataclasses.replace(cfg.task, seed=0))
    return cfg, task, run_strategy(cfg, 0, task)


def with_round(run, t, **changes):
    """A copy of the run with round t's record changed."""
    records = list(run.records)
    records[t - 1] = dataclasses.replace(records[t - 1], **changes)
    return dataclasses.replace(run, records=records)


def first_prune(run):
    """(round, client) of the first rank drop visible in the records."""
    for prev, cur in zip(run.records, run.records[1:]):
        for k, (r0, r1) in enumerate(zip(prev.client_ranks, cur.client_ranks)):
            if r1 < r0:
                return cur.round_index, k
    raise AssertionError("no prune in the smoke run")


def rank_grows(run, cfg):
    ranks = list(run.records[9].client_ranks)
    ranks[0] += 1
    return with_round(run, 10, client_ranks=tuple(ranks))


def rank_drops_too_far(run, cfg):
    t, k = first_prune(run)
    ranks = list(run.records[t - 1].client_ranks)
    ranks[k] -= 1
    d_l = cfg.task.d + cfg.task.l
    rec = run.records[t - 1]
    return with_round(run, t, client_ranks=tuple(ranks), up_params=rec.up_params - d_l)


def rank_drops(run, cfg):
    ranks = list(run.records[9].client_ranks)
    ranks[0] -= 1
    rec = run.records[9]
    return with_round(run, 10, client_ranks=tuple(ranks),
                      up_params=rec.up_params - (cfg.task.d + cfg.task.l))


def up_short_by_one_rank(run, cfg):
    rec = run.records[9]
    return with_round(run, 10, up_params=rec.up_params - (cfg.task.d + cfg.task.l))


def non_finite_loss(run, cfg):
    return with_round(run, 10, eval_loss=math.nan)


def reordered_round(run, cfg):
    records = list(run.records)
    records[9], records[10] = records[10], records[9]
    return dataclasses.replace(run, records=records)


def cumulative_off(run, cfg):
    return with_round(run, 10, cumulative_params=run.records[9].cumulative_params + 1)


def no_convergence(run, cfg):
    return with_round(run, cfg.rounds, eval_loss=run.initial_eval_loss)


CORRUPTIONS = [
    ("hetlora", rank_grows, "rank grew"),
    ("hetlora", rank_drops_too_far, "rank dropped"),
    ("recon_svd", rank_drops, "rank dropped"),
    ("homlora", rank_grows, "homlora ranks"),
    ("full_ft", rank_grows, "full_ft ranks"),
    ("hetlora", up_short_by_one_rank, "down - up"),
    ("recon_svd", up_short_by_one_rank, "down - up"),
    ("homlora", up_short_by_one_rank, "homlora traffic"),
    ("full_ft", up_short_by_one_rank, "full_ft traffic"),
    ("hetlora", non_finite_loss, "non-finite"),
    ("full_ft", non_finite_loss, "non-finite"),
    ("hetlora", reordered_round, "in order"),
    ("recon_svd", reordered_round, "in order"),
    ("homlora", cumulative_off, "running sum"),
    ("hetlora", no_convergence, "below half"),
    ("full_ft", no_convergence, "below the initial"),
]


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_clean_runs_pass(strategy):
    cfg, task, run = smoke(strategy)
    assert checks.check_run(run, cfg) == []
    assert checks.check_initial_loss(run, task) == []


@pytest.mark.parametrize("strategy,corrupt,message", CORRUPTIONS,
                         ids=[f"{s}-{c.__name__}" for s, c, _ in CORRUPTIONS])
def test_corrupted_stream_fails(strategy, corrupt, message):
    cfg, _, run = smoke(strategy)
    errors = checks.check_run(corrupt(run, cfg), cfg)
    assert any(message in e for e in errors), errors


def test_initial_loss_check():
    _, task, run = smoke("hetlora")
    bad = dataclasses.replace(run, initial_eval_loss=run.initial_eval_loss * (1 + 1e-6))
    assert checks.check_initial_loss(bad, task)


def random_pair(rng, d, l, r):
    return LoraPair(b=Matrix(rng.normal(size=(d, r))), a=Matrix(rng.normal(size=(r, l))))


@pytest.mark.parametrize("aggregation", ["simple", "sparsity_weighted"])
def test_aggregate_check(aggregation):
    rng = np.random.default_rng(0)
    d, l = 6, 5
    before = ServerState(global_pair=random_pair(rng, d, l, 4), round_index=0,
                         aggregation=aggregation, client_ranks={0: 4, 1: 3, 2: 2, 3: 4})
    # client 3 is not in the round, so the registry keeps the global rank at 4
    updates = [(0, random_pair(rng, d, l, 3)), (1, random_pair(rng, d, l, 2)),
               (2, random_pair(rng, d, l, 1))]
    after = aggregate(before, updates)
    assert checks.check_aggregate(before, updates, after, "clean") == []

    b = after.global_pair.b.array.copy()
    b[0, 0] *= 1 + 1e-6
    nudged = dataclasses.replace(after, global_pair=LoraPair(Matrix(b), after.global_pair.a))
    assert checks.check_aggregate(before, updates, nudged, "nudged")

    narrower = dataclasses.replace(before, client_ranks={0: 4, 1: 3, 2: 2, 3: 1})
    assert checks.check_aggregate(narrower, updates, after, "rank")


def test_eval_loss_check():
    _, task, run = smoke("full_ft")
    zero = np.zeros(task.target_delta.array.shape)
    assert checks.check_eval_loss(run.initial_eval_loss, zero, task, "clean") == []
    assert checks.check_eval_loss(run.initial_eval_loss, task.target_delta.array, task, "bad")


def test_replay_matches_homlora_and_catches_a_changed_loss():
    cfg, task, run = smoke("homlora")
    replayed = checks.fedavg_replay(cfg, task, 0, cfg.rounds, seeded_rng)
    assert checks.check_replay(run, replayed) == []
    replayed[5] *= 1 + 1e-6
    assert checks.check_replay(run, replayed)
