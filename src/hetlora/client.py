"""Client-side local training with rank self-pruning, and the dense local
step of full fine-tuning.

A client runs a few mini-batch SGD steps on its data loss plus a
regularizer on the tail rank block (the last ranks beyond
max(1, floor(decay * r))), then prunes those tail ranks if the regularizer
drove their norm strictly below the value it had in the module received
from the server. Pruned ranks persist across rounds and never grow back.

The clients selected in a round are trained together, as one cohort in
stacked arrays: every step is one batched matmul per operation for the
whole cohort. Adapters are zero-padded to the cohort's largest rank, and
the padding stays exactly zero under SGD. Each client still draws its own
batches from its own stream, so its result does not depend on its place
in the cohort. A client's batches of a round are drawn with one call on
its (client seed, round) stream and turned into index sets for the whole
cohort at once; the indices, and the stream, are bit for bit those of one
Generator.choice(n, batch_size, replace=False) per step (see
linalg.batches_from_draws). The tails are indexed once, as (client,
rank) pairs through which the tail norms, the regulariser's gradient and
the prune test all read the factors. A cohort in which no client can
have a tail (decay 1, or every rank 1) keeps no tail index.

A step works on the factors alone: the base residuals x w0' - y of all
the round's batch rows are computed once, and each step's gradients go
through n x r and n x d products, never through w0 + b a or another d x l
matrix. Finiteness is checked once, after the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, batches_from_draws, seeded_rng
from .lora import LoraPair
from .tasks import ClientDataset


class TrainingError(RuntimeError):
    """Local training diverged (non-finite values)."""


@dataclass
class ClientState:
    id: int
    current_rank: int  # persists across rounds, never increases; 0 for dense
    dataset: ClientDataset
    seed: int


@dataclass(frozen=True)
class LocalTrainConfig:
    local_iters: int = 5
    batch_size: int = 8
    learning_rate: float = 0.01
    reg_weight: float = 0.0  # weight of the tail-block norm product
    decay: float = 1.0  # fraction of ranks kept by one pruning event, in (0, 1]

    def __post_init__(self):
        if self.local_iters < 1:
            raise ValueError("local_iters must be >= 1")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        if self.reg_weight < 0:
            raise ValueError("reg_weight must be non-negative")


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


def _cohort_indices(states: list[ClientState], cfg: LocalTrainConfig,
                    round_index: int) -> np.ndarray:
    """The rows of each client's mini-batches of one round in its own
    dataset, m x iters x n for the cohort's longest batch n; a shorter
    batch is padded with row 0.

    Each client's batches come from a stream derived from (client seed,
    round), so a local result is independent of scheduling order and of
    the cohort. They are the batches of local_iters successive
    Rng.batch_indices calls on that stream, bit for bit, but drawn in one
    Rng.batch_draws call per client, and the draws of all clients with the
    same number of samples become index sets in one batches_from_draws
    pass. A client with no more samples than batch_size uses all of them,
    in order, in every step, and draws nothing.
    """
    n = min(cfg.batch_size, max(s.dataset.size for s in states))
    idx = np.zeros((len(states), cfg.local_iters, n), dtype=np.intp)
    by_size: dict[int, list[int]] = {}
    for j, s in enumerate(states):
        by_size.setdefault(s.dataset.size, []).append(j)
    for size, js in by_size.items():
        if size <= cfg.batch_size:
            idx[js, :, :size] = np.arange(size)
            continue
        draws = np.concatenate([
            seeded_rng(states[j].seed).child("round", round_index)
            .batch_draws(size, cfg.batch_size, cfg.local_iters) for j in js])
        idx[js] = batches_from_draws(draws, size, cfg.batch_size).reshape(
            len(js), cfg.local_iters, n)
    return idx


def _cohort_batches(states: list[ClientState], w0: Matrix, cfg: LocalTrainConfig,
                    round_index: int):
    """A cohort's mini-batches of one round: inputs (iters x m x n x l), the
    base residuals x w0' - y of their rows (iters x m x n x d), and the batch
    lengths.

    The batches are those of _cohort_indices. All rows are gathered with one
    index from the sample pool the clients' datasets view into, and their
    base residuals come from one matmul. A client with fewer samples than
    the cohort's batch length has its batches padded with zero rows, whose
    base residuals are zero too, so they add nothing to its gradient.
    """
    first = states[0].dataset
    pool = first.pool if first.pool is not None else first
    for s in states:
        if (s.dataset.pool if s.dataset.pool is not None else s.dataset) is not pool:
            raise ValueError("a cohort's datasets must view into one sample pool")
    idx = _cohort_indices(states, cfg, round_index)
    idx += np.array([s.dataset.start for s in states])[:, None, None]
    idx = idx.transpose(1, 0, 2)
    xs = pool.inputs.array[idx]
    ys = pool.targets.array[idx]
    lengths = [min(cfg.batch_size, s.dataset.size) for s in states]
    n = idx.shape[2]
    if min(lengths) < n:
        for j, k in enumerate(lengths):
            xs[:, j, k:] = 0.0
            ys[:, j, k:] = 0.0
        n = np.array(lengths, dtype=np.float64)[:, None, None]
    # a stacked matmul takes each batch's product on its own, so a client's
    # residuals do not depend on its place in the cohort
    r0 = xs @ w0.array.T
    r0 -= ys
    return xs, r0, n


def _raise_first_divergence(states: list[ClientState], *stacks: np.ndarray) -> None:
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
    raise TrainingError(f"client {states[np.flatnonzero(~ok)[0]].id} diverged")


def local_train(states: list[ClientState], received: list[LoraPair], w0: Matrix,
                cfg: LocalTrainConfig, round_index: int = 0) -> list[LoraPair]:
    """Run local SGD for a cohort, decide on pruning, and persist each
    client's new rank.

    states[k] trains received[k]. Returns the trained pairs in cohort
    order, each truncated to its client's new rank. With reg_weight 0 and
    decay 1 this is a plain FedAvg local step: the tail is empty and the
    strict-decrease pruning test can never fire.

    A step takes the data-loss gradient in low-rank form. With a batch x
    (n x l), its base residuals r0 = x w0' - y, xa = x a' (n x r) and
    resid = (r0 + xa b') / n, the gradients are g_b = resid' xa and
    g_a = (resid b)' x: the gradients of the dense form, without forming
    w0 + b a or any other d x l matrix.
    """
    if len(states) != len(received):
        raise ValueError(f"{len(states)} clients but {len(received)} models")
    for s, p in zip(states, received):
        if p.rank != s.current_rank:
            raise ValueError(
                f"client {s.id} holds rank {s.current_rank} but received "
                f"rank {p.rank}"
            )
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

    xs, r0, n = _cohort_batches(states, w0, cfg, round_index)
    for step in range(cfg.local_iters):
        x = xs[step]
        xa = x @ a.transpose(0, 2, 1)
        resid = xa @ b.transpose(0, 2, 1)
        resid += r0[step]
        resid /= n
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
    _raise_first_divergence(states, b, a)

    new_ranks = ranks
    if has_tail:
        # a client without a tail has norm 0 before and after, and 0 < 0
        shrunk = np.multiply(*tails.norms(b, a)) < received_tail
        new_ranks = np.where(shrunk, tails.keep, ranks).tolist()
    trained = []
    for j, (s, r) in enumerate(zip(states, new_ranks)):
        s.current_rank = r
        trained.append(LoraPair(b=Matrix._wrap(b[j, :, :r]), a=Matrix._wrap(a[j, :r])))
    return trained


def dense_local_train(states: list[ClientState], deltas: list[np.ndarray],
                      w0: Matrix, cfg: LocalTrainConfig, round_index: int,
                      ) -> list[np.ndarray]:
    """Local SGD of a cohort on dense d x l additive updates (full
    fine-tuning): states[k] trains deltas[k].

    Same batches as local_train; the loss is the plain MSE of w0 + delta,
    with no regulariser and no rank. Returns new arrays in cohort order.
    """
    if len(states) != len(deltas):
        raise ValueError(f"{len(states)} clients but {len(deltas)} models")
    local = np.array(deltas, dtype=np.float64)
    xs, r0, n = _cohort_batches(states, w0, cfg, round_index)
    for step in range(cfg.local_iters):
        # local -= lr * (r0 + x local')' x / n, computed in place
        x = xs[step]
        resid = x @ local.transpose(0, 2, 1)
        resid += r0[step]
        g_dense = resid.transpose(0, 2, 1) @ x
        g_dense /= n
        g_dense *= cfg.learning_rate
        local -= g_dense
    _raise_first_divergence(states, local)
    return list(local)
