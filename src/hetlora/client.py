"""Client-side local training with rank self-pruning, and the dense local
step of full fine-tuning.

A client runs a few mini-batch SGD steps on its data loss plus a
regularizer on the tail rank block (the last ranks beyond
max(1, floor(decay * r))), then prunes those tail ranks if the regularizer
drove their norm strictly below the value it had in the module received
from the server. A client keeps no rank: local training returns its new
rank, which the server's registry keeps, so pruned ranks never grow back.

Client k is an index into the task: its samples are rows [k n, (k + 1) n)
of the task's pool, and their base residuals x w0' - y the same rows of
the task's residual table, computed once per task.

The clients selected in a round are trained together, as one cohort in
stacked arrays: stacks and batch rows in, ranks out, and nothing drawn. A
strategy hands the cohort its adapters as one b stack (m x d x width) and
one a stack (m x width x l), each zero-padded to the cohort's largest
rank (lora.hand_out copies the server's pair once and writes each
client's padding zeros), and the rows of each client's mini-batches in
its samples; local_train trains the stacks in place and returns the new
ranks, and dense_local_train trains a stack of dense updates in place.
Every step is one batched matmul per operation for the whole cohort, and
the padding stays exactly zero under SGD; the prune test writes zeros
into the ranks a client drops, so each client's trained stacks are zero
beyond its new rank. Each round allocates its own
stacks, batches and products, so the trained stacks can go to the server
as they are. A client's batches come from its own (client seed, round)
stream, bit for bit one Generator.choice(n, batch_size, replace=False)
per step, so its result does not depend on its place in the cohort;
draw_batches draws those of many rounds' cohorts at once. The tails are
indexed once, as (client, rank) pairs through which the tail norms, the
regulariser's gradient and the prune test all read the factors. A cohort
in which no client can have a tail (decay 1, or every rank 1) keeps no
tail index.

A step works on the factors alone: a round gathers its batch rows and
their base residuals with two np.take calls, and each step's updates go
through n x r and n x d products, never through w0 + b a or another d x l
matrix. The step size lr / n is folded into an n-row operand of each
product, so a step's updates are subtracted as they come out of the
matmul. Finiteness is checked once, after the last step.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig
from .linalg import NumericError, choices, stream_words
from .linalg import seeded_rng  # noqa: F401 - bench/tracing.py wraps client.seeded_rng
from .lora import LoraPair
from .tasks import SyntheticTask


def draw_batches(seeds, rounds, n: int, size: int, iters: int) -> np.ndarray:
    """The batch rows of cohorts whose seeds in round rounds[i] are seeds[i]:
    rounds x m x iters x min(size, n), in the smallest unsigned type that
    holds n - 1. A client's rows in round t are those of iters successive
    Rng.batch_indices(n, size) calls on its (seed, "round", t) stream, bit
    for bit (linalg.choices). Each distinct seed's streams are hashed once."""
    slots = np.asarray(seeds, np.int64)
    members, where = np.unique(slots, return_inverse=True)
    words = stream_words(members, rounds, "round")
    words = words[where.reshape(slots.shape), np.arange(len(rounds))[:, None]]
    rows = choices(words.reshape(-1, 4), n, size, iters).astype(np.min_scalar_type(n - 1))
    return rows.reshape(*slots.shape, iters, -1)


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
    # each rank's dot product over a contiguous copy of its row, summed in
    # rank order before the square root, as _Tails.norms reduces a tail
    nb, na = (np.sqrt(sum(np.dot(v, v) for v in np.ascontiguousarray(rows)))
              for rows in (p.b.array[:, keep:].T, p.a.array[keep:]))
    return float(nb * na)


class _Tails:
    """Each client's tail ranks [kept_rank(r_k), r_k) in a cohort's stacked
    factors, as one list of (client, rank) pairs, client by client."""

    def __init__(self, ranks, decay: float):
        self.keep = [kept_rank(r, decay) for r in ranks]
        self.client = np.repeat(np.arange(len(ranks)), np.subtract(ranks, self.keep))
        self.rank = np.concatenate([np.arange(k, r) for k, r in zip(self.keep, ranks)])

    def norms(self, b: np.ndarray, a: np.ndarray) -> tuple[tuple, tuple]:
        """Frobenius norms of each client's tail columns of b and tail rows
        of a, 0 for a client without a tail, and the tail rows gathered:
        ((b norms, a norms), (b rows, a rows)).

        Each tail rank is reduced by the dot product of its row with
        itself, and a client's ranks are summed in rank order before the
        square root, as tail_block_norm reduces a tail: a tail of any width
        has tail_block_norm's bits.
        """
        j, k = self.client, self.rank
        rows = b[j, :, k], a[j, k]
        return (self._norms(rows[0]), self._norms(rows[1])), rows

    def _norms(self, rows: np.ndarray) -> np.ndarray:
        # a stack of 1 x n times n x 1 products is one dot product per row
        v = rows[:, None, :]
        sq = (v @ v.transpose(0, 2, 1)).ravel()
        return np.sqrt(np.bincount(self.client, sq, minlength=len(self.keep)))


def _add_reg_grad(gb: np.ndarray, ga: np.ndarray, tails: _Tails, norms: tuple,
                  rows: tuple, weight: float) -> None:
    """In-place gradient of weight * ||b_tail|| * ||a_tail|| for every
    client of a stacked cohort, given the tail norms and the tail rows
    that tails.norms(b, a) returns for its factors b and a.

    Subgradient 0 is used for a factor whose tail norm is 0 (the product of
    norms is non-differentiable there), which keeps fully-shrunk tails stable.
    """
    nb, na = norms
    # dividing by inf instead of a zero norm gives that subgradient 0
    cb = weight * (na / np.where(nb > 0, nb, np.inf))
    ca = weight * (nb / np.where(na > 0, na, np.inf))
    # only the tail entries change; the stacks are indexed in three
    # dimensions because a flat view of a non-contiguous stack is a copy
    j, k = tails.client, tails.rank
    gb[j, :, k] += rows[0] * cb[j, None]
    ga[j, k, :] += rows[1] * ca[j, None]


def _cohort_batches(task: SyntheticTask, selected: list[int],
                    batches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The selected clients' mini-batches of one round, whose rows in each
    client's samples are batches (m x iters x size): inputs (iters x m x
    size x l) and their base residuals (iters x m x size x d), gathered from
    the task's pool and residual table through one flat index, client k's
    samples being rows [k n, (k + 1) n) of both."""
    n = task.spec.samples_per_client
    flat = batches.transpose(1, 0, 2) + np.multiply(selected, n)[:, None]
    return tuple(np.take(rows.array, flat, axis=0)
                 for rows in (task.pool.inputs, task.base_resid))


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


def local_train(task: SyntheticTask, selected: list[int], b: np.ndarray, a: np.ndarray,
                ranks: list[int], cfg: ExperimentConfig, batches: np.ndarray) -> list[int]:
    """Run local SGD for a cohort, in place, and decide on pruning.

    Client selected[j] trains b[j] (d x width) and a[j] (width x l), its
    adapter at rank ranks[j] zero-padded to the stacks' width, one step on
    each of its mini-batches, whose rows in its samples are batches[j]
    (local_iters x size). Returns the clients' new ranks in cohort order:
    client j's trained adapter is the leading new-rank block of b[j] and
    a[j], and both are exactly zero beyond it, since SGD keeps the padding
    zero and a client that prunes has its dropped ranks zeroed here. With
    reg_weight 0 and decay 1 this is a plain FedAvg local step:
    the tail is empty and the strict-decrease pruning test can never fire.

    A step takes the data-loss gradient in low-rank form. With a batch x
    (n x l), its base residuals r0 = x w0' - y, xa = x a' (n x r) and
    resid = r0 + xa b', it subtracts lr g_b = resid' (xa lr / n) from b and
    lr g_a = (resid b lr / n)' x from a, with lr reg_weight times the
    regulariser's gradient added: the gradients of the dense form, without
    forming w0 + b a or any other d x l matrix.
    """
    if len(selected) != len(b):
        raise ValueError(f"{len(selected)} clients but {len(b)} models")
    # below rank 2 or at decay 1 no client has a tail to regularize or prune
    has_tail = cfg.decay < 1 and max(ranks) > 1
    if has_tail:
        tails = _Tails(ranks, cfg.decay)
        norms, rows = tails.norms(b, a)
        received_tail = np.multiply(*norms)
    regularize = cfg.reg_weight > 0 and has_tail

    xs, r0 = _cohort_batches(task, selected, batches)
    scale = cfg.learning_rate / xs.shape[2]
    for step in range(cfg.local_iters):
        x = xs[step]
        xa = x @ a.transpose(0, 2, 1)
        resid = xa @ b.transpose(0, 2, 1)
        resid += r0[step]
        gb = resid.transpose(0, 2, 1) @ (xa * scale)
        ga = ((resid @ b) * scale).transpose(0, 2, 1) @ x
        if regularize:
            # step 0 regularizes the received factors, whose norms are known
            if step:
                norms, rows = tails.norms(b, a)
            _add_reg_grad(gb, ga, tails, norms, rows, cfg.learning_rate * cfg.reg_weight)
        b -= gb
        a -= ga
    _raise_first_divergence(selected, b, a)
    if not has_tail:
        return list(ranks)
    # a client without a tail has norm 0 before and after, and 0 < 0
    shrunk = np.multiply(*tails.norms(b, a)[0]) < received_tail
    dropped = shrunk[tails.client]
    j, k = tails.client[dropped], tails.rank[dropped]
    b[j, :, k] = a[j, k] = 0
    return np.where(shrunk, tails.keep, ranks).tolist()


def dense_local_train(task: SyntheticTask, selected: list[int], deltas: np.ndarray,
                      cfg: ExperimentConfig, batches: np.ndarray) -> None:
    """Local SGD of a cohort on dense d x l additive updates (full
    fine-tuning), in place: client selected[j] trains deltas[j] on the
    rows batches[j], as local_train does. The loss is the plain MSE of
    w0 + delta, with no regulariser and no rank.
    """
    if len(selected) != len(deltas):
        raise ValueError(f"{len(selected)} clients but {len(deltas)} models")
    xs, r0 = _cohort_batches(task, selected, batches)
    scale = cfg.learning_rate / xs.shape[2]
    for step in range(cfg.local_iters):
        # deltas -= (r0 + x deltas')' (x lr / n)
        x = xs[step]
        resid = x @ deltas.transpose(0, 2, 1)
        resid += r0[step]
        deltas -= resid.transpose(0, 2, 1) @ (x * scale)
    _raise_first_divergence(selected, deltas)
