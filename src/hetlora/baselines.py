"""Protocol runners: one round loop for the heterogeneous-rank engine and
the comparison strategies (homogeneous-rank, full fine-tuning,
reconstruct-then-refactor).

Every strategy follows the same protocol on the same task, seeds,
selection schedule and local SGD machinery, so their metric curves are
comparable round by round: the server selects clients and hands each a
model, the selected clients train their models locally as one cohort (one
local step call per round), and the server aggregates the results. A
strategy supplies only what differs: the model it hands out, its local
step, its aggregation and its eval. Divergence ends the run with the
partial stream flagged incomplete, naming the first client in selection
order that diverged.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .client import (
    ClientState,
    LocalTrainConfig,
    TrainingError,
    dense_local_train,
    local_train,
)
from .config import ConfigError, ExperimentConfig
from .linalg import Matrix, NumericError, seeded_rng
from .lora import LoraPair, reconstruct, refactor_svd, truncate
from .records import RoundRecord, RunResult
from .server import (
    SIMPLE,
    ServerState,
    aggregate,
    assign_ranks,
    distribute,
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


def _initial_pair(task: SyntheticTask, rank: int, init_std: float,
                  run_seed: int) -> LoraPair:
    """Standard adapter init: left factor zero, right factor gaussian, so the
    initial update is exactly zero."""
    rng = seeded_rng(run_seed).child("init")
    return LoraPair(
        b=Matrix.zeros(task.spec.d, rank),
        a=rng.gaussian(rank, task.spec.l, std=init_std),
    )


def _make_clients(task: SyntheticTask, ranks, run_seed: int) -> list[ClientState]:
    return [
        ClientState(
            id=k,
            current_rank=ranks[k],
            dataset=task.clients[k],
            seed=_client_seed(run_seed, k),
        )
        for k in range(task.spec.num_clients)
    ]


class _Strategy:
    """What a strategy supplies to the round loop: hand_out(k) gives client
    k its model, local_step trains the round's cohort on the models handed
    out, aggregate folds a round's (client, trained model) updates into the
    server's model, and evaluate gives the eval loss of that model. Clients
    train adapters with local_train unless a strategy says otherwise."""

    def __init__(self, task: SyntheticTask, clients: list[ClientState],
                 lcfg: LocalTrainConfig):
        self.task = task
        self.clients = clients
        self.lcfg = lcfg

    def local_step(self, selected: list[int], models: list[LoraPair],
                   t: int) -> list[LoraPair]:
        return local_train([self.clients[k] for k in selected], models,
                           self.task.base.w0, self.lcfg, round_index=t)


class _FactorServer(_Strategy):
    """hetlora and homlora: the server keeps the global factor pair, hands
    out its truncations and averages the returned factors."""

    def __init__(self, cfg: ExperimentConfig, task: SyntheticTask, run_seed: int,
                 ranks, lcfg: LocalTrainConfig, aggregation: str):
        super().__init__(task, _make_clients(task, ranks, run_seed), lcfg)
        self.server = ServerState(
            global_pair=_initial_pair(task, max(ranks), cfg.init_std, run_seed),
            round_index=0,
            aggregation=aggregation,
            client_ranks={c.id: c.current_rank for c in self.clients},
        )

    def hand_out(self, k: int) -> LoraPair:
        return distribute(self.server, self.clients[k].current_rank)

    def aggregate(self, updates: list[tuple[int, LoraPair]]) -> None:
        self.server = aggregate(self.server, updates)

    def evaluate(self) -> float:
        return loss(self.server.global_pair, self.task.base.w0, self.task.eval_set)


class _DenseServer(_Strategy):
    """The server keeps a dense d x l update and replaces it each round by
    the plain mean of the clients' dense updates."""

    def __init__(self, task: SyntheticTask, clients: list[ClientState],
                 lcfg: LocalTrainConfig):
        super().__init__(task, clients, lcfg)
        self.dense = np.zeros((task.spec.d, task.spec.l))

    def _set_mean(self, updates: list[np.ndarray]) -> None:
        acc = np.zeros_like(self.dense)
        for u in updates:
            acc += u / len(updates)
        self.dense = acc

    def evaluate(self) -> float:
        return dense_loss(Matrix._wrap(self.dense), self.task.base.w0,
                          self.task.eval_set)


class _FullFT(_DenseServer):
    """FedAvg on a dense additive update with the base weight frozen.

    Clients receive and return the whole update, d*l parameters each way.
    """

    def hand_out(self, k: int) -> np.ndarray:
        return self.dense

    def local_step(self, selected: list[int], models: list[np.ndarray],
                   t: int) -> list[np.ndarray]:
        return dense_local_train([self.clients[k] for k in selected], models,
                                 self.task.base.w0, self.lcfg, round_index=t)

    def aggregate(self, updates: list[tuple[int, np.ndarray]]) -> None:
        self._set_mean([u for _, u in updates])


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

    def __init__(self, cfg: ExperimentConfig, task: SyntheticTask, run_seed: int,
                 ranks, lcfg: LocalTrainConfig):
        super().__init__(task, _make_clients(task, ranks, run_seed), lcfg)
        self.rank = max(ranks)
        self.pair = _initial_pair(task, self.rank, cfg.init_std, run_seed)

    def hand_out(self, k: int) -> LoraPair:
        if self.pair is None:
            self.pair = refactor_svd(self.dense, self.rank)
        return truncate(self.pair, self.clients[k].current_rank)

    def aggregate(self, updates: list[tuple[int, LoraPair]]) -> None:
        self._set_mean([reconstruct(p).array for _, p in updates])
        self.pair = None


def _params(model, task: SyntheticTask) -> int:
    """Parameters one model carries one way: r(d+l) for an adapter pair,
    d*l for a dense update."""
    if isinstance(model, LoraPair):
        return lora_params(model.rank, task.spec.d, task.spec.l)
    return model.size


# overflow on the way to divergence is reported by the failure text, not
# by numpy warnings on stderr
@np.errstate(over="ignore", invalid="ignore")
def _run_rounds(cfg: ExperimentConfig, task: SyntheticTask, run_seed: int,
                strategy: _Strategy) -> RunResult:
    """The round loop every strategy shares.

    A non-finite initial eval loss is a ConfigError, raised before round 1.
    A client's local divergence, a non-finite value met by the server, or
    a non-finite eval loss ends the run as incomplete; the round it
    happened in is not recorded.
    """
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
            received = [strategy.hand_out(k) for k in selected]
            trained = strategy.local_step(selected, received, t)
            strategy.aggregate(list(zip(selected, trained)))
            eval_loss = strategy.evaluate()
            if not math.isfinite(eval_loss):
                raise NumericError(f"eval loss is {eval_loss}")
        except (TrainingError, NumericError) as exc:
            run.completed = False
            run.failure = f"round {t}: {exc}"
            break
        down = sum(_params(model, task) for model in received)
        up = sum(_params(model, task) for model in trained)
        cumulative += down + up
        run.records.append(
            RoundRecord(
                round_index=t,
                eval_loss=eval_loss,
                client_ranks=tuple(c.current_rank for c in strategy.clients),
                down_params=down,
                up_params=up,
                cumulative_params=cumulative,
                wall_clock=time.perf_counter() - start,
            )
        )
    return run


def run_strategy(cfg: ExperimentConfig, run_seed: int,
                 task: SyntheticTask | None = None) -> RunResult:
    """Run cfg.strategy on one seed, on the task supplied or else on one
    generated with the run seed (a ConfigError if it cannot be)."""
    if task is None:
        try:
            task = generate_task(replace(cfg.task, seed=run_seed))
        except ValueError as exc:
            raise ConfigError(f"seed {run_seed}: {exc}") from None
    n = task.spec.num_clients
    plain = LocalTrainConfig(local_iters=cfg.local_iters, batch_size=cfg.batch_size,
                             learning_rate=cfg.learning_rate)
    if cfg.strategy in ("hetlora", "recon_svd"):
        ranks = assign_ranks(n, cfg.r_min, cfg.r_max, cfg.rank_alpha, run_seed)
    if cfg.strategy == "hetlora":
        lcfg = replace(plain, reg_weight=cfg.reg_weight, decay=cfg.decay)
        strategy = _FactorServer(cfg, task, run_seed, ranks, lcfg, cfg.aggregation)
    elif cfg.strategy == "homlora":
        # hetlora with every rank fixed, no regulariser, no pruning and
        # plain averaging
        strategy = _FactorServer(cfg, task, run_seed, (cfg.homlora_rank,) * n, plain,
                                 SIMPLE)
    elif cfg.strategy == "full_ft":
        # dense clients have no adapter rank and record 0
        strategy = _FullFT(task, _make_clients(task, (0,) * n, run_seed), plain)
    elif cfg.strategy == "recon_svd":
        strategy = _ReconSvd(cfg, task, run_seed, ranks, plain)
    else:
        raise ValueError(f"unknown strategy {cfg.strategy!r}")
    return _run_rounds(cfg, task, run_seed, strategy)
