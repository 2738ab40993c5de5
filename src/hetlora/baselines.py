"""Protocol runners: one round loop for the heterogeneous-rank engine and
the comparison strategies (homogeneous-rank, full fine-tuning,
reconstruct-then-refactor).

Every strategy follows the same protocol on the same task, seeds,
selection schedule and local SGD machinery, so their metric curves are
comparable round by round: the server selects clients and hands the
cohort its models as one stack, the selected clients train the stack
locally (one local step call per round), and the server aggregates the
results; traffic is counted from the ranks handed out and returned. A
strategy supplies only what differs: the model it hands out, its local
step, its aggregation and its eval. Divergence ends the run with the
partial stream flagged incomplete, naming the first client in selection
order that diverged.

What a run derives from its task spec and seed alone is built once per
process: tasks.generate_task keeps the last 4 tasks built, a strategy
takes the run's batch schedule, every round's mini-batch rows of every
cohort client, from a cache of the last 4 drawn, and the selections come
from the server's cache, so a sweep's strategies on one seed share them.
Each cached value is read-only and has the bits a cold run computes.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import replace

import numpy as np

from . import server
from .client import dense_local_train, draw_batches, local_train
from .config import ConfigError, ExperimentConfig
from .linalg import Matrix, NumericError, seeded_rng
from .lora import LoraPair, hand_out, reconstruct, refactor_svd  # noqa: F401 - traced by bench
from .records import RunResult
from .server import (
    SIMPLE,
    ServerState,
    Updates,
    aggregate,
    assign_ranks,
    distribute,  # noqa: F401 - traced by bench
    select_clients,
)
from .tasks import OVERFLOW_HINT, SyntheticTask, dense_loss, generate_task, loss


def lora_params(rank: int, d: int, l: int) -> int:
    """Parameters communicated one way for a rank-r adapter."""
    return rank * (d + l)


def _client_seed(run_seed: int, client_id: int) -> int:
    # stable per-client derivation, independent of participation history
    return int(
        np.random.SeedSequence([run_seed, 0x636C69, client_id]).generate_state(1)[0]
    )


@functools.lru_cache(maxsize=4)
def _batch_schedule(run_seed: int, num_clients: int, m: int, rounds: int, n: int,
                    size: int, iters: int) -> np.ndarray:
    """A run's batch rows, read-only: round t's cohort's are schedule[t - 1],
    as draw_batches gives them, drawn 32 rounds at a time. Cohorts come from
    server.select_clients: a tracer keys rounds by the round loop's lookup here."""
    seeds = np.array([_client_seed(run_seed, k) for k in range(num_clients)])
    schedule = np.empty((rounds, m, iters, min(size, n)), np.min_scalar_type(n - 1))
    for first in range(0, rounds, 32):
        ts = np.arange(first + 1, min(first + 32, rounds) + 1)
        cohorts = [server.select_clients(num_clients, m, t, run_seed) for t in ts]
        schedule[first:first + len(ts)] = draw_batches(seeds[cohorts], ts, n, size, iters)
    schedule.setflags(write=False)
    return schedule


def _initial_pair(task: SyntheticTask, rank: int, init_std: float,
                  run_seed: int) -> LoraPair:
    """Standard adapter init: left factor zero, right factor gaussian, so the
    initial update is exactly zero."""
    rng = seeded_rng(run_seed).child("init")
    return LoraPair(
        b=Matrix.zeros(task.spec.d, rank),
        a=rng.gaussian(rank, task.spec.l, std=init_std),
    )


class _Strategy:
    """What a strategy supplies to the round loop: round(selected, rows)
    hands the round's cohort its models, trains them on their batch rows
    (batches[t - 1] in round t) with one local step call and folds the
    results into the server's model, and returns the parameters sent down
    and up; evaluate gives the eval loss of that model, and ranks gives
    every client's rank in client-id order. It is built from the run's
    config, as run_strategy fixes it, and derives its ranks from it."""

    def __init__(self, cfg: ExperimentConfig, task: SyntheticTask, run_seed: int):
        self.cfg, self.task, spec = cfg, task, task.spec
        self.batches = _batch_schedule(run_seed, spec.num_clients, cfg.clients_per_round,
                                       cfg.rounds, spec.samples_per_client,
                                       cfg.batch_size, cfg.local_iters)

    def traffic(self, ranks) -> int:
        """Parameters the adapters of these ranks carry one way."""
        return lora_params(sum(ranks), self.task.spec.d, self.task.spec.l)


class _FactorServer(_Strategy):
    """hetlora and homlora: the server keeps the global factor pair and the
    registry of client ranks, hands out truncations at the registry's ranks,
    and averages the returned factors, whose ranks update the registry."""

    def __init__(self, cfg: ExperimentConfig, task: SyntheticTask, run_seed: int):
        super().__init__(cfg, task, run_seed)
        ranks = assign_ranks(task.spec.num_clients, cfg.r_min, cfg.r_max,
                             cfg.rank_alpha, run_seed)
        self.server = ServerState(
            global_pair=_initial_pair(task, max(ranks), cfg.init_std, run_seed),
            round_index=0, aggregation=cfg.aggregation,
            client_ranks=dict(enumerate(ranks)))

    @property
    def ranks(self) -> tuple[int, ...]:
        # the registry keeps the client-id order it was built in
        return tuple(self.server.client_ranks.values())

    def round(self, selected: list[int], rows: np.ndarray) -> tuple[int, int]:
        ranks = [self.server.client_ranks[k] for k in selected]
        b, a = hand_out(self.server.global_pair, ranks)
        new_ranks = local_train(self.task, selected, b, a, ranks, self.cfg, rows)
        w = max(new_ranks)  # local_train left the stacks zero beyond each new rank
        self.server = aggregate(self.server,
                                Updates(selected, b[:, :, :w], a[:, :w], new_ranks))
        return self.traffic(ranks), self.traffic(new_ranks)

    def evaluate(self) -> float:
        return loss(self.server.global_pair, self.task)


class _DenseServer(_Strategy):
    """The server keeps a dense d x l update and replaces it each round by
    the plain mean of the clients' dense updates. Client ranks are fixed, at
    0 for clients without an adapter."""

    def __init__(self, cfg: ExperimentConfig, task: SyntheticTask, run_seed: int):
        super().__init__(cfg, task, run_seed)
        self.ranks = (0,) * task.spec.num_clients
        self.dense = np.zeros((task.spec.d, task.spec.l))

    def evaluate(self) -> float:
        return dense_loss(Matrix._wrap(self.dense), self.task)


class _FullFT(_DenseServer):
    """FedAvg on a dense additive update with the base weight frozen.

    Each client receives and returns the whole update, d*l parameters each way.
    """

    def round(self, selected: list[int], rows: np.ndarray) -> tuple[int, int]:
        local = np.repeat(self.dense[None], len(selected), axis=0)
        dense_local_train(self.task, selected, local, self.cfg, rows)
        self.dense = local.mean(axis=0)
        return local.size, local.size


class _ReconSvd(_DenseServer):
    """Reconstruct-first baseline: the server averages reconstructed client
    products uniformly and hands out slices of a truncated SVD of the dense
    update.

    Once per round the dense update is refactored at the largest client
    rank; a truncation of that pair is exactly the refactoring at a smaller
    rank. The first round hands out truncations of the standard factored
    init (refactoring the zero matrix would hand every client an all-zero
    pair, which SGD can never leave). No self-pruning: ranks stay at their
    initial assignment.
    """

    def __init__(self, cfg: ExperimentConfig, task: SyntheticTask, run_seed: int):
        super().__init__(cfg, task, run_seed)
        self.ranks = assign_ranks(task.spec.num_clients, cfg.r_min, cfg.r_max,
                                  cfg.rank_alpha, run_seed)
        self.pair = _initial_pair(task, max(self.ranks), cfg.init_std, run_seed)

    def round(self, selected: list[int], rows: np.ndarray) -> tuple[int, int]:
        if self.pair is None:
            self.pair = refactor_svd(self.dense, max(self.ranks))
        ranks = [self.ranks[k] for k in selected]
        b, a = hand_out(self.pair, ranks)
        new_ranks = local_train(self.task, selected, b, a, ranks, self.cfg, rows)
        # the sum of the clients' products b a is one product of their
        # factors side by side, d x m*width times m*width x l, to which the
        # zero padding adds nothing
        d, l = self.dense.shape
        self.dense = b.transpose(1, 0, 2).reshape(d, -1) @ a.reshape(-1, l)
        self.dense /= len(b)
        self.pair = None
        return self.traffic(ranks), self.traffic(new_ranks)


# each strategy tag's class, built from the config run_strategy fixes for it
_STRATEGIES = {"hetlora": _FactorServer, "homlora": _FactorServer,
               "full_ft": _FullFT, "recon_svd": _ReconSvd}


# overflow on the way to divergence is reported by the failure text, not
# by numpy warnings on stderr
@np.errstate(over="ignore", invalid="ignore")
def _run_rounds(strategy: _Strategy, run_seed: int) -> RunResult:
    """The round loop every strategy shares.

    A non-finite initial eval loss is a ConfigError, raised before round 1.
    A client's local divergence, a non-finite value met by the server, or
    a non-finite eval loss ends the run as incomplete; the round it
    happened in is not recorded.
    """
    cfg, task = strategy.cfg, strategy.task
    initial = strategy.evaluate()
    if not math.isfinite(initial):
        raise ConfigError(f"seed {run_seed}: initial eval loss is {initial}; "
                          f"{OVERFLOW_HINT}")
    run = RunResult(seed=run_seed, strategy=cfg.tag, initial_eval_loss=initial)
    cumulative = 0
    for t in range(1, cfg.rounds + 1):
        start = time.perf_counter()
        selected = select_clients(task.spec.num_clients, cfg.clients_per_round, t,
                                  run_seed)
        try:
            down, up = strategy.round(selected, strategy.batches[t - 1])
            eval_loss = strategy.evaluate()
            if not math.isfinite(eval_loss):
                raise NumericError(f"eval loss is {eval_loss}")
        except NumericError as exc:
            run.completed = False
            run.failure = f"round {t}: {exc}"
            break
        cumulative += down + up
        run.add_round(round_index=t, eval_loss=eval_loss, client_ranks=strategy.ranks,
                      down_params=down, up_params=up, cumulative_params=cumulative,
                      wall_clock=time.perf_counter() - start)
    return run


def run_strategy(cfg: ExperimentConfig, run_seed: int,
                 task: SyntheticTask | None = None) -> RunResult:
    """Run cfg.strategy on one seed, on the task supplied or else on the
    one generated with the run seed (a ConfigError if it cannot be), which
    the process's runs on the same task spec and seed share."""
    if task is None:
        try:
            task = generate_task(replace(cfg.task, seed=run_seed))
        except ValueError as exc:
            raise ConfigError(f"seed {run_seed}: {exc}") from None
    # homlora is hetlora with every client at one rank (rank_alpha 1, which
    # no rank refuses) and plain FedAvg; no comparison regularises or prunes
    r, plain = cfg.homlora_rank, dict(reg_weight=0.0, decay=1.0)
    fixed = {"hetlora": {}, "full_ft": plain, "recon_svd": plain,
             "homlora": dict(plain, r_min=r, r_max=r, rank_alpha=1.0, aggregation=SIMPLE)}
    cfg = replace(cfg, **fixed[cfg.strategy])
    return _run_rounds(_STRATEGIES[cfg.strategy](cfg, task, run_seed), run_seed)
