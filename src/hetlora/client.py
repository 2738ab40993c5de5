"""Client-side local training with rank self-pruning, and the dense local
step of full fine-tuning.

A client runs a few mini-batch SGD steps on its data loss plus a
regularizer on the tail rank block (the last ranks beyond
max(1, floor(decay * r))), then prunes those tail ranks if the regularizer
drove their norm strictly below the value it had in the module received
from the server. A client keeps no rank: the pair it returns has its new
rank, which the server's rank registry keeps, so pruned ranks never grow back.

A run's clients are one Clients object: their samples as clients x n
arrays, views of the task's pool (every client holds the task's
samples_per_client samples), and their seeds; a client is its index. The
clients selected in a round are trained together, as one cohort in
stacked arrays: every step is one batched matmul per operation for the
whole cohort. Adapters are zero-padded to the cohort's largest rank, and
the padding stays exactly zero under SGD. Each client still draws its own
batches from its own (client seed, round) stream, bit for bit one
Generator.choice(n, batch_size, replace=False) per step (_cohort_indices),
so its result does not depend on its place in the cohort. The tails are
indexed once, as (client, rank) pairs through which the tail norms, the
regulariser's gradient and the prune test all read the factors. A cohort
in which no client can have a tail (decay 1, or every rank 1) keeps no
tail index.

A step works on the factors alone: the base residuals x w0' - y of all
the round's batch rows are computed once, and each step's gradients go
through n x r and n x d products, never through w0 + b a or another d x l
matrix. Finiteness is checked once, after the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (Matrix, NumericError, batches_from_draws, bounded_draws,
                     choice_bounds, stream_words)
from .linalg import seeded_rng  # noqa: F401 - bench/tracing.py wraps client.seeded_rng
from .lora import LoraPair
from .tasks import SyntheticTask


class Clients:
    """A run's clients as arrays: client k holds inputs[k] (n x l) and
    targets[k] (n x d), read-only views of its rows of the task's pool, and
    seeds[k], the seed of its batch streams."""

    def __init__(self, task: SyntheticTask, seeds):
        n = task.spec.samples_per_client
        self.inputs = task.pool.inputs.array.reshape(-1, n, task.spec.l)
        self.targets = task.pool.targets.array.reshape(-1, n, task.spec.d)
        self.seeds = [int(s) for s in seeds]
        self._block, self._words = None, None

    def round_words(self, selected, t: int) -> np.ndarray:
        """The seed words of the (seeds[k], "round", t) streams of the
        clients k in selected, one row each. They are computed for every
        client at once, 32 rounds t at a time, when a round of the block is
        first asked for; only the last block is kept."""
        if t // 32 != self._block:
            self._block = t // 32
            self._words = stream_words(self.seeds, np.arange(32) + 32 * self._block)
        return self._words[selected, t % 32]


@dataclass(frozen=True)
class LocalTrainConfig:
    local_iters: int = 5
    batch_size: int = 8
    learning_rate: float = 0.01
    reg_weight: float = 0.0  # weight of the tail-block norm product
    decay: float = 1.0  # fraction of ranks kept by one pruning event, in (0, 1]


def kept_rank(rank: int, decay: float) -> int:
    """Ranks surviving one pruning event: max(1, floor(decay * rank))."""
    return max(1, math.floor(decay * rank))


def tail_block_norm(p: LoraPair, decay: float) -> float:
    """Product of Frobenius norms of the tail columns of b and tail rows of a.

    The tail is ranks [max(1, floor(decay * r)), r); empty tail gives 0.
    """
    if not 0 < decay <= 1:
        raise ValueError("decay must be in (0, 1]")
    keep = kept_rank(p.rank, decay)
    if keep >= p.rank:
        return 0.0
    nb = float(np.linalg.norm(p.b.array[:, keep:]))
    na = float(np.linalg.norm(p.a.array[keep:, :]))
    return nb * na


class _Tails:
    """Each client's tail ranks [kept_rank(r_k), r_k) in a cohort's stacked
    factors, as one list of (client, rank) pairs, client by client."""

    def __init__(self, ranks, decay: float):
        self.keep = [kept_rank(r, decay) for r in ranks]
        self.client = np.repeat(np.arange(len(ranks)), np.subtract(ranks, self.keep))
        self.rank = np.concatenate([np.arange(k, r) for k, r in zip(self.keep, ranks)])

    def norms(self, b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frobenius norms of each client's tail columns of b and tail rows
        of a, 0 for a client without a tail.

        Each tail rank is reduced by the dot product np.linalg.norm uses,
        and a client's ranks are summed before the square root: a one-rank
        tail has tail_block_norm's bits, a wider one agrees to rounding.
        """
        j, k = self.client, self.rank
        return self._norms(b[j, :, k]), self._norms(a[j, k])

    def _norms(self, rows: np.ndarray) -> np.ndarray:
        # a stack of 1 x n times n x 1 products is one dot product per row
        v = rows[:, None, :]
        sq = (v @ v.transpose(0, 2, 1)).ravel()
        return np.sqrt(np.bincount(self.client, sq, minlength=len(self.keep)))


def _add_reg_grad(gb: np.ndarray, ga: np.ndarray, b: np.ndarray, a: np.ndarray,
                  tails: _Tails, norms: tuple[np.ndarray, np.ndarray],
                  reg_weight: float) -> None:
    """In-place gradient of reg_weight * ||b_tail|| * ||a_tail|| for every
    client of a stacked cohort, given the tail norms tails.norms(b, a).

    Subgradient 0 is used for a factor whose tail norm is 0 (the product of
    norms is non-differentiable there), which keeps fully-shrunk tails stable.
    """
    nb, na = norms
    # dividing by inf instead of a zero norm gives that subgradient 0
    cb = reg_weight * (na / np.where(nb > 0, nb, np.inf))
    ca = reg_weight * (nb / np.where(na > 0, na, np.inf))
    # only the tail entries change; the stacks are indexed in three
    # dimensions because a flat view of a non-contiguous stack is a copy
    j, k = tails.client, tails.rank
    gb[j, :, k] += b[j, :, k] * cb[j, None]
    ga[j, k, :] += a[j, k, :] * ca[j, None]


def _cohort_indices(clients: Clients, selected: list[int], cfg: LocalTrainConfig,
                    round_index: int) -> np.ndarray:
    """The rows of each selected client's mini-batches of one round in its
    own samples, m x iters x min(batch_size, n) for the n samples every
    client holds.

    A client's batches are those of local_iters successive
    Rng.batch_indices calls on its (client seed, round) stream, bit for
    bit: bounded_draws takes the draws from the selected clients' seed
    words of the round (Clients.round_words), and batches_from_draws turns
    them into index sets. With no more samples than batch_size, every
    client uses all of them, in order, in every step, and draws nothing.
    """
    m, n = len(selected), clients.inputs.shape[1]
    if n <= cfg.batch_size:
        return np.broadcast_to(np.arange(n), (m, cfg.local_iters, n))
    draws = bounded_draws(clients.round_words(selected, round_index),
                          choice_bounds(n, cfg.batch_size, cfg.local_iters))
    batches = batches_from_draws(draws.reshape(m * cfg.local_iters, -1), n,
                                 cfg.batch_size)
    return batches.reshape(m, cfg.local_iters, cfg.batch_size)


def _cohort_batches(clients: Clients, selected: list[int], w0: Matrix,
                    cfg: LocalTrainConfig, round_index: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The selected clients' mini-batches of one round: inputs (iters x m x
    n x l) and the base residuals x w0' - y of their rows (iters x m x n x d).

    The batches are those of _cohort_indices. All rows are gathered from
    the clients' arrays with one index, and their base residuals come from
    one matmul.
    """
    idx = _cohort_indices(clients, selected, cfg, round_index).transpose(1, 0, 2)
    rows = np.asarray(selected)[:, None]
    xs = clients.inputs[rows, idx]
    ys = clients.targets[rows, idx]
    # a stacked matmul takes each batch's product on its own, so a client's
    # residuals do not depend on its place in the cohort
    r0 = xs @ w0.array.T
    r0 -= ys
    return xs, r0


def _raise_first_divergence(selected: list[int], *stacks: np.ndarray) -> None:
    """Name the first client, in cohort order, whose trained values are not
    all finite: the client a one-at-a-time loop would have stopped at.

    An SGD update only subtracts from a value, so a value that went
    non-finite at any step is still non-finite after the last one, and no
    operation mixes clients: one check per local round sees every client
    that diverged.
    """
    if all(np.isfinite(s).all() for s in stacks):
        return
    ok = np.logical_and.reduce([np.isfinite(s).all(axis=(1, 2)) for s in stacks])
    raise NumericError(f"client {selected[np.flatnonzero(~ok)[0]]} diverged")


def local_train(clients: Clients, selected: list[int], received: list[LoraPair],
                w0: Matrix, cfg: LocalTrainConfig, round_index: int) -> list[LoraPair]:
    """Run local SGD for a cohort and decide on pruning.

    Client selected[j] trains received[j], at received[j]'s rank. Returns
    the trained pairs in cohort order, each truncated to its client's new
    rank, and changes none of its arguments. With reg_weight 0 and decay 1 this is a
    plain FedAvg local step: the tail is empty and the strict-decrease
    pruning test can never fire.

    A step takes the data-loss gradient in low-rank form. With a batch x
    (n x l), its base residuals r0 = x w0' - y, xa = x a' (n x r) and
    resid = (r0 + xa b') / n, the gradients are g_b = resid' xa and
    g_a = (resid b)' x: the gradients of the dense form, without forming
    w0 + b a or any other d x l matrix.
    """
    if len(selected) != len(received):
        raise ValueError(f"{len(selected)} clients but {len(received)} models")
    ranks = [p.rank for p in received]
    width = max(ranks)
    b = np.zeros((len(received), received[0].d, width))
    a = np.zeros((len(received), width, received[0].l))
    for j, p in enumerate(received):
        b[j, :, : p.rank] = p.b.array
        a[j, : p.rank] = p.a.array
    # below rank 2 or at decay 1 no client has a tail to regularize or prune
    has_tail = cfg.decay < 1 and width > 1
    if has_tail:
        tails = _Tails(ranks, cfg.decay)
        norms = tails.norms(b, a)
        received_tail = np.multiply(*norms)
    regularize = cfg.reg_weight > 0 and has_tail

    xs, r0 = _cohort_batches(clients, selected, w0, cfg, round_index)
    for step in range(cfg.local_iters):
        x = xs[step]
        xa = x @ a.transpose(0, 2, 1)
        resid = xa @ b.transpose(0, 2, 1)
        resid += r0[step]
        resid /= xs.shape[2]
        gb = resid.transpose(0, 2, 1) @ xa
        ga = (resid @ b).transpose(0, 2, 1) @ x
        if regularize:
            # step 0 regularizes the received factors, whose norms are known
            if step:
                norms = tails.norms(b, a)
            _add_reg_grad(gb, ga, b, a, tails, norms, cfg.reg_weight)
        gb *= cfg.learning_rate
        b -= gb
        ga *= cfg.learning_rate
        a -= ga
    _raise_first_divergence(selected, b, a)

    new_ranks = ranks
    if has_tail:
        # a client without a tail has norm 0 before and after, and 0 < 0
        shrunk = np.multiply(*tails.norms(b, a)) < received_tail
        new_ranks = np.where(shrunk, tails.keep, ranks).tolist()
    return [LoraPair(b=Matrix._wrap(b[j, :, :r]), a=Matrix._wrap(a[j, :r]))
            for j, r in enumerate(new_ranks)]


def dense_local_train(clients: Clients, selected: list[int],
                      deltas: list[np.ndarray], w0: Matrix, cfg: LocalTrainConfig,
                      round_index: int) -> list[np.ndarray]:
    """Local SGD of a cohort on dense d x l additive updates (full
    fine-tuning): client selected[j] trains deltas[j].

    Same batches as local_train; the loss is the plain MSE of w0 + delta,
    with no regulariser and no rank. Returns new arrays in cohort order.
    """
    if len(selected) != len(deltas):
        raise ValueError(f"{len(selected)} clients but {len(deltas)} models")
    local = np.array(deltas, dtype=np.float64)
    xs, r0 = _cohort_batches(clients, selected, w0, cfg, round_index)
    for step in range(cfg.local_iters):
        # local -= lr * (r0 + x local')' x / n, computed in place
        x = xs[step]
        resid = x @ local.transpose(0, 2, 1)
        resid += r0[step]
        g_dense = resid.transpose(0, 2, 1) @ x
        g_dense /= xs.shape[2]
        g_dense *= cfg.learning_rate
        local -= g_dense
    _raise_first_divergence(selected, local)
    return list(local)
