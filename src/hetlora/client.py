"""Client-side local training with rank self-pruning, and the dense local
step of full fine-tuning.

A client runs a few mini-batch SGD steps on its data loss plus a
regularizer on the tail rank block (the last ranks beyond
max(1, floor(decay * r))), then prunes those tail ranks if the regularizer
drove their norm strictly below the value it had in the module received
from the server. Pruned ranks persist across rounds and never grow back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, seeded_rng
from .lora import LoraPair, truncate
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


def regularized_loss(p: LoraPair, w0: Matrix, batch: ClientDataset,
                     cfg: LocalTrainConfig) -> float:
    from .tasks import loss  # local import to avoid cycle in module docs

    return loss(p, w0, batch) + cfg.reg_weight * tail_block_norm(p, cfg.decay)


def _add_reg_grad(gb: np.ndarray, ga: np.ndarray, b: np.ndarray, a: np.ndarray,
                  keep: int, reg_weight: float) -> None:
    """In-place gradient of reg_weight * ||b_tail|| * ||a_tail||.

    Subgradient 0 is used for a factor whose tail norm is 0 (the product of
    norms is non-differentiable there), which keeps fully-shrunk tails stable.
    """
    bt = b[:, keep:]
    at = a[keep:, :]
    nb = np.linalg.norm(bt)
    na = np.linalg.norm(at)
    if nb > 0:
        gb[:, keep:] += reg_weight * (na / nb) * bt
    if na > 0:
        ga[keep:, :] += reg_weight * (nb / na) * at


def _batches(state: ClientState, cfg: LocalTrainConfig, round_index: int):
    """The client's mini-batches (inputs, targets) of one round, one per
    local step.

    They are drawn from a stream derived from (client seed, round), so a
    local result is independent of scheduling order and thread count.
    """
    rng = seeded_rng(state.seed).child("round", round_index)
    x_all = state.dataset.inputs.array
    y_all = state.dataset.targets.array
    for _ in range(cfg.local_iters):
        idx = rng.batch_indices(state.dataset.size, cfg.batch_size)
        yield x_all[idx], y_all[idx]


def local_train(state: ClientState, received: LoraPair, w0: Matrix,
                cfg: LocalTrainConfig, round_index: int = 0,
                ) -> tuple[LoraPair, int]:
    """Run local SGD, decide on pruning, and persist the new rank.

    With reg_weight 0 and decay 1 this is a plain FedAvg local step: the
    tail is empty and the strict-decrease pruning test can never fire.
    """
    if received.rank != state.current_rank:
        raise ValueError(
            f"client {state.id} holds rank {state.current_rank} but received "
            f"rank {received.rank}"
        )
    r = received.rank
    keep = kept_rank(r, cfg.decay)
    has_tail = keep < r
    received_tail = tail_block_norm(received, cfg.decay)

    b = received.b.array.copy()
    a = received.a.array.copy()
    w0a = w0.array
    for step, (x, y) in enumerate(_batches(state, cfg, round_index)):
        resid = x @ (w0a + b @ a).T - y
        g_dense = resid.T @ x / len(x)
        gb = g_dense @ a.T
        ga = b.T @ g_dense
        if cfg.reg_weight > 0 and has_tail:
            _add_reg_grad(gb, ga, b, a, keep, cfg.reg_weight)
        b -= cfg.learning_rate * gb
        a -= cfg.learning_rate * ga
        if not (np.isfinite(b).all() and np.isfinite(a).all()):
            raise TrainingError(f"client {state.id} diverged", step)

    trained = LoraPair(b=Matrix._wrap(b), a=Matrix._wrap(a))
    new_rank = r
    if has_tail and tail_block_norm(trained, cfg.decay) < received_tail:
        trained = truncate(trained, keep)
        new_rank = keep
    state.current_rank = new_rank
    return trained, new_rank


def dense_local_train(state: ClientState, delta: np.ndarray, w0: Matrix,
                      cfg: LocalTrainConfig, round_index: int) -> np.ndarray:
    """Local SGD on a dense d x l additive update (full fine-tuning).

    Same batches as local_train; the loss is the plain MSE of w0 + delta,
    with no regulariser and no rank. Returns a new array.
    """
    local = delta.copy()
    w0a = w0.array
    for step, (x, y) in enumerate(_batches(state, cfg, round_index)):
        resid = x @ (w0a + local).T - y
        local -= cfg.learning_rate * (resid.T @ x / len(x))
        if not np.isfinite(local).all():
            raise TrainingError(f"client {state.id} diverged", step)
    return local
