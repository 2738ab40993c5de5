"""Output checks for the benchmark.

Every check returns a list of failure messages (empty when the output is
correct). None of them compares against a stored copy of earlier output:
each one either recomputes a value with plain numpy, apart from the
simulator's own code paths, or tests a property the protocol must have.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance for values the benchmark recomputes with its own numpy:
# the same arithmetic in another order differs only in the last few bits.
RTOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-15)


def kind_of(strategy: str) -> str:
    """The protocol family of a stream's strategy tag ('homlora_r2' -> 'homlora')."""
    return "homlora" if strategy.startswith("homlora_r") else strategy


def prune_events(run) -> int:
    """Client rank drops visible between consecutive records (rounds 2 on)."""
    return sum(
        sum(r1 < r0 for r0, r1 in zip(prev.client_ranks, cur.client_ranks))
        for prev, cur in zip(run.records, run.records[1:])
    )


def rounds_to_half(run) -> int | None:
    """First round whose eval loss is at most half the run's initial loss."""
    half = 0.5 * run.initial_eval_loss
    return next((r.round_index for r in run.records if r.eval_loss <= half), None)


def check_run(run, cfg) -> list[str]:
    """Structural, accounting and convergence checks on one run's records.

    cfg is the ExperimentConfig the run was made with (its strategy,
    dimensions, cohort size, rounds and decay).
    """
    tag = f"{run.strategy} seed {run.seed}"
    kind = kind_of(run.strategy)
    d, l, m = cfg.task.d, cfg.task.l, cfg.clients_per_round
    errors: list[str] = []

    if not run.completed:
        errors.append(f"{tag}: run incomplete: {run.failure}")
    indices = [r.round_index for r in run.records]
    if indices != list(range(1, cfg.rounds + 1)):
        errors.append(f"{tag}: rounds are not 1..{cfg.rounds} in order")

    losses = [run.initial_eval_loss] + [r.eval_loss for r in run.records]
    if not all(math.isfinite(v) and v >= 0 for v in losses):
        errors.append(f"{tag}: a loss is non-finite or negative")
    elif run.records:
        if not run.final_eval_loss < run.initial_eval_loss:
            errors.append(f"{tag}: final loss is not below the initial loss")
        if kind != "full_ft" and not run.final_eval_loss < 0.5 * run.initial_eval_loss:
            errors.append(f"{tag}: final loss is not below half the initial loss")

    decay = cfg.decay if kind == "hetlora" else 1.0
    cumulative = 0
    prev = None
    for rec in run.records:
        at = f"{tag} round {rec.round_index}"
        ranks = rec.client_ranks
        if len(ranks) != cfg.task.num_clients:
            errors.append(f"{at}: {len(ranks)} client ranks recorded")
        if kind == "full_ft":
            if any(ranks):
                errors.append(f"{at}: full_ft ranks are not all 0")
            if not rec.down_params == rec.up_params == m * d * l:
                errors.append(f"{at}: full_ft traffic is not m*d*l each way")
        if kind == "homlora":
            if any(r != cfg.homlora_rank for r in ranks):
                errors.append(f"{at}: homlora ranks left R={cfg.homlora_rank}")
            if not rec.down_params == rec.up_params == m * cfg.homlora_rank * (d + l):
                errors.append(f"{at}: homlora traffic is not m*R*(d+l) each way")
        if prev is not None:
            for k, (r0, r1) in enumerate(zip(prev.client_ranks, ranks)):
                if r1 > r0:
                    errors.append(f"{at}: client {k} rank grew {r0} -> {r1}")
                elif r1 < r0 and (kind != "hetlora" or r1 != max(1, math.floor(decay * r0))):
                    errors.append(f"{at}: client {k} rank dropped {r0} -> {r1}")
            if kind != "full_ft":
                dropped = sum(prev.client_ranks) - sum(ranks)
                if rec.down_params - rec.up_params != (d + l) * dropped:
                    errors.append(f"{at}: down - up != (d+l) * ranks dropped")
        cumulative += rec.down_params + rec.up_params
        if rec.cumulative_params != cumulative:
            errors.append(f"{at}: cumulative_params is not the running sum")
        prev = rec
    return errors


def eval_loss(delta: np.ndarray, task) -> float:
    """0.5 * mean ||X (W0 + delta)^T - Y||^2 over the task's eval set."""
    x = task.eval_set.inputs.array
    resid = x @ (task.base.w0.array + delta).T - task.eval_set.targets.array
    return float(0.5 * np.sum(resid * resid) / x.shape[0])


def check_initial_loss(run, task) -> list[str]:
    """The initial adapter update is zero, so the initial eval loss is
    0.5 * mean ||Delta* x||^2 over the noiseless eval set."""
    x = task.eval_set.inputs.array
    want = float(0.5 * np.sum((x @ task.target_delta.array.T) ** 2) / x.shape[0])
    if not close(run.initial_eval_loss, want):
        return [f"{run.strategy} seed {run.seed}: initial eval loss "
                f"{run.initial_eval_loss!r} != 0.5*mean||Delta* x||^2 = {want!r}"]
    return []


def expected_aggregate(before, updates) -> tuple[np.ndarray, np.ndarray]:
    """The global factors the server must hold after a round.

    Weights are proportional to ||B_k A_k||_F from the explicit product
    (uniform under simple averaging, or when every product is zero); the
    weighted factor sum is zero-padded to the batch maximum rank, then
    padded or truncated to the largest rank in the updated registry.
    """
    pairs = [p for _, p in updates]
    m = len(pairs)
    if before.aggregation == "simple":
        w = [1.0 / m] * m
    else:
        norms = [float(np.linalg.norm(p.b.array @ p.a.array)) for p in pairs]
        total = sum(norms)
        w = [n / total for n in norms] if total > 0 else [1.0 / m] * m
    registry = dict(before.client_ranks)
    registry.update((cid, p.rank) for cid, p in updates)
    width = max(max(p.rank for p in pairs), max(registry.values()))
    d, l = pairs[0].b.array.shape[0], pairs[0].a.array.shape[1]
    b = np.zeros((d, width))
    a = np.zeros((width, l))
    for wk, p in zip(w, pairs):
        b[:, : p.rank] += wk * p.b.array
        a[: p.rank, :] += wk * p.a.array
    keep = max(registry.values())
    return b[:, :keep], a[:keep, :]


def check_aggregate(before, updates, after, where: str) -> list[str]:
    b, a = expected_aggregate(before, updates)
    got = after.global_pair
    if got.b.array.shape != b.shape or got.a.array.shape != a.shape:
        return [f"{where}: global rank {got.rank}, expected {b.shape[1]}"]
    if not (np.allclose(got.b.array, b, rtol=RTOL, atol=1e-15)
            and np.allclose(got.a.array, a, rtol=RTOL, atol=1e-15)):
        return [f"{where}: global factors differ from the weighted factor sum"]
    return []


def check_eval_loss(recorded: float, delta: np.ndarray, task, where: str) -> list[str]:
    want = eval_loss(delta, task)
    if not close(recorded, want):
        return [f"{where}: recorded eval loss {recorded!r} != recomputed {want!r}"]
    return []


def client_seed(run_seed: int, client_id: int) -> int:
    """The per-client seed the simulator derives from (run seed, client)."""
    return int(np.random.SeedSequence([run_seed, 0x636C69, client_id]).generate_state(1)[0])


def fedavg_replay(cfg, task, seed: int, rounds: int, seeded_rng) -> list[float]:
    """Eval losses of a plain FedAvg of rank-R adapters, written here from
    the protocol description: zero left factor, gaussian right factor,
    uniform client selection, mini-batch SGD, and the plain mean of the
    returned factors. Selection and batches come from seeded_rng streams.
    """
    rank, n_clients = cfg.homlora_rank, cfg.task.num_clients
    w0 = task.base.w0.array
    b = np.zeros((cfg.task.d, rank))
    a = seeded_rng(seed).child("init").gaussian(rank, cfg.task.l, std=cfg.init_std).array
    losses = []
    for t in range(1, rounds + 1):
        chosen = seeded_rng(seed).child("selection", t).subset(n_clients, cfg.clients_per_round)
        sum_b = np.zeros_like(b)
        sum_a = np.zeros_like(a)
        for k in chosen:
            rng = seeded_rng(client_seed(seed, k)).child("round", t)
            x_all = task.clients[k].inputs.array
            y_all = task.clients[k].targets.array
            bk, ak = b.copy(), a.copy()
            for _ in range(cfg.local_iters):
                idx = rng.batch_indices(x_all.shape[0], cfg.batch_size)
                x, y = x_all[idx], y_all[idx]
                g = (x @ (w0 + bk @ ak).T - y).T @ x / len(idx)
                bk, ak = bk - cfg.learning_rate * g @ ak.T, ak - cfg.learning_rate * bk.T @ g
            sum_b += bk
            sum_a += ak
        b, a = sum_b / len(chosen), sum_a / len(chosen)
        losses.append(eval_loss(b @ a, task))
    return losses


def check_replay(run, replayed: list[float]) -> list[str]:
    got = [r.eval_loss for r in run.records[: len(replayed)]]
    bad = [t for t, (g, w) in enumerate(zip(got, replayed), start=1) if not close(g, w)]
    if len(got) != len(replayed) or bad:
        where = bad[0] if bad else len(got) + 1
        return [f"{run.strategy} seed {run.seed}: plain FedAvg replay differs "
                f"from round {where}"]
    return []
