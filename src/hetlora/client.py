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
in the cohort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, seeded_rng
from .lora import LoraPair
from .tasks import ClientDataset


class TrainingError(RuntimeError):
    """Local training diverged (non-finite values)."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} at local step {step}")
        self.step = step


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
    factors, b (m x d x width) and a (m x width x l)."""

    def __init__(self, ranks, decay: float, d: int, width: int):
        ranks = np.asarray(ranks)
        m = len(ranks)
        self.keep = np.array([kept_rank(int(r), decay) for r in ranks])
        self.present = self.keep < ranks
        span = np.arange(width)
        self.mask = ((span >= self.keep[:, None])
                     & (span < ranks[:, None])).astype(np.float64)
        # each tail's ranks, padded up to the widest tail; `live` zeroes the
        # padding
        j = np.arange(max(1, int((ranks - self.keep).max())))
        cols = np.minimum(self.keep[:, None] + j, width - 1)
        live = (j < (ranks - self.keep)[:, None]).astype(np.float64)
        # flat indices of the tail entries of b and a, client by client,
        # row by row (the order np.linalg.norm reads a tail block in)
        b_rows = np.arange(m)[:, None, None] * d + np.arange(d)[:, None]
        self._b_at = (b_rows * width + cols[:, None, :]).reshape(m, -1)
        self._b_live = np.broadcast_to(live[:, None, :], (m, d, len(j))).reshape(m, -1)
        self._a_at = np.arange(m)[:, None] * width + cols
        self._a_live = live[:, :, None]

    def norms(self, b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frobenius norms of each client's tail columns of b and tail rows
        of a, 0 for a client without a tail.

        A tail is read in the order np.linalg.norm reads it and reduced by
        the same dot product, so when every tail in the cohort is equally
        wide the norms have tail_block_norm's bits.
        """
        bt = np.take(b, self._b_at)
        bt *= self._b_live
        at = np.take(a.reshape(-1, a.shape[2]), self._a_at, axis=0)
        at *= self._a_live
        m = len(bt)
        return _norms(bt.reshape(m, 1, -1)), _norms(at.reshape(m, 1, -1))


def _norms(v: np.ndarray) -> np.ndarray:
    # a stack of row-times-column products is one dot product per row
    return np.sqrt((v @ v.transpose(0, 2, 1)).ravel())


def _add_reg_grad(gb: np.ndarray, ga: np.ndarray, b: np.ndarray, a: np.ndarray,
                  tails: _Tails, reg_weight: float) -> None:
    """In-place gradient of reg_weight * ||b_tail|| * ||a_tail|| for every
    client of a stacked cohort.

    Subgradient 0 is used for a factor whose tail norm is 0 (the product of
    norms is non-differentiable there), which keeps fully-shrunk tails stable.
    """
    nb, na = tails.norms(b, a)
    # dividing by inf instead of a zero norm gives that subgradient 0
    cb = reg_weight * (na / np.where(nb > 0, nb, np.inf))
    ca = reg_weight * (nb / np.where(na > 0, na, np.inf))
    gb += b * (cb[:, None] * tails.mask)[:, None, :]
    ga += a * (ca[:, None] * tails.mask)[:, :, None]


def _cohort_batches(states: list[ClientState], cfg: LocalTrainConfig,
                    round_index: int):
    """A cohort's mini-batches of one round: inputs (iters x m x n x l),
    targets (iters x m x n x d), and the batch lengths.

    Each client's batches are drawn from a stream derived from (client
    seed, round), so a local result is independent of scheduling order and
    of the cohort. All rows are gathered with one index from the sample
    pool the clients' datasets view into. A client with fewer samples than
    the cohort's batch length has its batches padded with zero rows, which
    add nothing to its gradient.
    """
    first = states[0].dataset
    pool = first.pool if first.pool is not None else first
    lengths = [min(cfg.batch_size, s.dataset.size) for s in states]
    n = max(lengths)
    idx = np.zeros((len(states), cfg.local_iters, n), dtype=np.intp)
    for j, s in enumerate(states):
        data = s.dataset
        if (data.pool if data.pool is not None else data) is not pool:
            raise ValueError("a cohort's datasets must view into one sample pool")
        rng = seeded_rng(s.seed).child("round", round_index)
        idx[j, :, : lengths[j]] = [rng.batch_indices(data.size, cfg.batch_size)
                                   for _ in range(cfg.local_iters)]
        idx[j] += data.start
    idx = idx.transpose(1, 0, 2)
    xs = pool.inputs.array[idx]
    ys = pool.targets.array[idx]
    if min(lengths) == n:
        return xs, ys, n
    for j, k in enumerate(lengths):
        xs[:, j, k:] = 0.0
        ys[:, j, k:] = 0.0
    return xs, ys, np.array(lengths, dtype=np.float64)[:, None, None]


def _mark_diverged(first_bad: np.ndarray, step: int, *stacks: np.ndarray) -> None:
    """Record `step` for each client whose stacked values just went
    non-finite."""
    if all(np.isfinite(s).all() for s in stacks):
        return
    ok = np.logical_and.reduce([np.isfinite(s).all(axis=(1, 2)) for s in stacks])
    first_bad[~ok & (first_bad < 0)] = step


def _raise_first_divergence(states: list[ClientState], first_bad: np.ndarray):
    """Name the first client, in cohort order, that diverged, with its first
    non-finite step: the client a one-at-a-time loop would have stopped at."""
    bad = np.flatnonzero(first_bad >= 0)
    if bad.size:
        j = bad[0]
        raise TrainingError(f"client {states[j].id} diverged", int(first_bad[j]))


def local_train(states: list[ClientState], received: list[LoraPair], w0: Matrix,
                cfg: LocalTrainConfig, round_index: int = 0) -> list[LoraPair]:
    """Run local SGD for a cohort, decide on pruning, and persist each
    client's new rank.

    states[k] trains received[k]. Returns the trained pairs in cohort
    order, each truncated to its client's new rank. With reg_weight 0 and
    decay 1 this is a plain FedAvg local step: the tail is empty and the
    strict-decrease pruning test can never fire.
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
    tails = _Tails(ranks, cfg.decay, received[0].d, width)
    has_tail = tails.present.any()
    if has_tail:
        received_tail = np.multiply(*tails.norms(b, a))
    regularize = cfg.reg_weight > 0 and has_tail

    xs, ys, n = _cohort_batches(states, cfg, round_index)
    w0a = w0.array
    first_bad = np.full(len(states), -1)
    for step in range(cfg.local_iters):
        # resid = x (w0 + b a)' - y and g_dense = resid' x / n, computed in
        # place
        x = xs[step]
        w = b @ a
        w += w0a
        resid = x @ w.transpose(0, 2, 1)
        resid -= ys[step]
        g_dense = resid.transpose(0, 2, 1) @ x
        g_dense /= n
        gb = g_dense @ a.transpose(0, 2, 1)
        ga = b.transpose(0, 2, 1) @ g_dense
        if regularize:
            _add_reg_grad(gb, ga, b, a, tails, cfg.reg_weight)
        gb *= cfg.learning_rate
        b -= gb
        ga *= cfg.learning_rate
        a -= ga
        _mark_diverged(first_bad, step, b, a)
    _raise_first_divergence(states, first_bad)

    new_ranks = ranks
    if has_tail:
        shrunk = tails.present & (np.multiply(*tails.norms(b, a)) < received_tail)
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
    xs, ys, n = _cohort_batches(states, cfg, round_index)
    w0a = w0.array
    first_bad = np.full(len(states), -1)
    for step in range(cfg.local_iters):
        # local -= lr * (x (w0 + local)' - y)' x / n, computed in place
        x = xs[step]
        w = w0a + local
        resid = x @ w.transpose(0, 2, 1)
        resid -= ys[step]
        g_dense = resid.transpose(0, 2, 1) @ x
        g_dense /= n
        g_dense *= cfg.learning_rate
        local -= g_dense
        _mark_diverged(first_bad, step, local)
    _raise_first_divergence(states, first_bad)
    return list(local)
