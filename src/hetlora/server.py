"""Server-side protocol: rank assignment, client selection, distribution via
truncation, and aggregation of heterogeneous-rank adapters.

The server keeps one global adapter pair whose rank always equals the
maximum current rank across all registered clients, so distribution can
always truncate down to any client's rank. Selection is drawn for 32
rounds at a time by linalg.choices, with the bits of one Rng.subset per
round.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import Matrix, NumericError, choices, seeded_rng, stream_words
from .lora import LoraPair, truncate
from .lora import aggregate_pairs, sparsity_score  # noqa: F401 - traced by bench

SIMPLE = "simple"
SPARSITY_WEIGHTED = "sparsity_weighted"
AGGREGATION_STRATEGIES = (SIMPLE, SPARSITY_WEIGHTED)


@dataclass(frozen=True)
class ServerState:
    global_pair: LoraPair
    round_index: int
    aggregation: str  # "simple" | "sparsity_weighted"
    client_ranks: dict[int, int]  # every client's rank; its only record


def assign_ranks(num_clients: int, r_min: int, r_max: int, alpha: float,
                 seed: int) -> tuple[int, ...]:
    """Initial per-client ranks, sampled i.i.d. from pmf(r) proportional to
    r^(alpha - 1) on [r_min, r_max] inclusive.

    Small alpha skews the distribution toward small ranks; alpha = 1 is
    uniform.
    """
    weights = rank_weights(r_min, r_max, alpha)
    if r_min == r_max:  # one rank: nothing to draw
        return (r_min,) * num_clients
    rng = seeded_rng(seed).child("rank-assignment")
    return tuple(r_min + rng.sample_discrete(weights) for _ in range(num_clients))


@np.errstate(over="ignore")
def rank_weights(r_min: int, r_max: int, alpha: float) -> np.ndarray:
    """The weights r^(alpha - 1) of the ranks r_min..r_max. Raises
    ValueError naming rank_alpha if they are not finite or all vanish."""
    weights = np.arange(r_min, r_max + 1, dtype=np.float64) ** (alpha - 1.0)
    if not (math.isfinite(alpha) and 0 < weights.sum() < np.inf):
        raise ValueError(f"rank_alpha {alpha} must be finite and keep r^(rank_alpha"
                         f" - 1) on [{r_min}, {r_max}] finite and not all 0")
    return weights


def select_clients(num_clients: int, num_selected: int, round_index: int,
                   seed: int) -> list[int]:
    """Uniform sample without replacement, deterministic per (seed, round):
    Rng.subset of the (seed, "selection", round) stream, bit for bit, for
    seeds and rounds below 2**32, drawn 32 rounds at a time. Selecting
    every client draws nothing."""
    # choices would select every client for num_selected > num_clients
    if not 1 <= num_selected <= num_clients:
        raise ValueError(f"cannot pick {num_selected} of {num_clients}")
    block = _selection_block(num_clients, num_selected, round_index // 32, seed)
    return list(block[round_index % 32])


@functools.lru_cache(maxsize=4)
def _selection_block(n: int, m: int, block: int, seed: int) -> tuple[tuple, ...]:
    # one Generator.choice(n, m, replace=False) per round of the block, in
    # one pass over the rounds' streams, each row then sorted as subset does
    # (np.sort: a full draw is a read-only broadcast)
    words = stream_words([seed], np.arange(32) + 32 * block, "selection")[0]
    picks = np.sort(choices(words, n, m, 1)[:, 0], axis=1)
    return tuple(map(tuple, picks.tolist()))


def distribute(state: ServerState, client_rank: int) -> LoraPair:
    """Truncate the global pair down to the client's current rank."""
    return truncate(state.global_pair, client_rank)


def aggregation_weights(b: np.ndarray, a: np.ndarray, aggregation: str) -> np.ndarray:
    """Non-negative weights summing to 1 for a batch of updates, stacked
    and zero-padded to one width: b is m x d x r, a is m x r x l.

    Sparsity weighting is proportional to each update's reconstruction
    Frobenius norm ||b_k a_k||, sparsity_score's trace((b'b)(aa')) for all
    updates at once; an all-zero-score batch falls back to uniform (the
    normalizer would be 0 otherwise).
    """
    m = len(b)
    if aggregation == SIMPLE:
        return np.full(m, 1.0 / m)
    if aggregation == SPARSITY_WEIGHTED:
        btb = np.matmul(b.transpose(0, 2, 1), b)
        aat = np.matmul(a, a.transpose(0, 2, 1))
        scores = np.sqrt(np.maximum(np.einsum("kij,kji->k", btb, aat), 0.0))
        total = scores.sum()
        return np.full(m, 1.0 / m) if total <= 0 else scores / total
    raise ValueError(f"unknown aggregation {aggregation!r}")


def aggregate(state: ServerState, updates: list[tuple[int, LoraPair]]) -> ServerState:
    """Fold a round of client updates into a new server state.

    The registry is updated with the submitting clients' (possibly pruned)
    ranks first; the new global rank is the max current rank across ALL
    clients, so unselected high-rank clients keep their entitled width. If
    every client has pruned below the old global rank the global pair
    shrinks to the new max (the discarded trailing ranks can no longer be
    distributed to anyone).

    The update pairs are zero-padded once, into one stack at the batch's
    largest rank, and the weighted stack is summed update by update, as
    aggregate_pairs sums them, straight into the global width. Raises
    NumericError for non-finite weights, and for a sum that overflows.
    """
    if not updates:
        raise ValueError("updates must be non-empty")
    registry = {**state.client_ranks, **{cid: p.rank for cid, p in updates}}
    # the registry holds every update's rank, so the global is never narrower
    top_rank = max(registry.values())
    d, l, width = updates[0][1].d, updates[0][1].l, max(p.rank for _, p in updates)
    b, a = np.zeros((len(updates), d, width)), np.zeros((len(updates), width, l))
    for j, (_, p) in enumerate(updates):
        b[j, :, : p.rank] = p.b.array
        a[j, : p.rank] = p.a.array
    w = aggregation_weights(b, a, state.aggregation)
    if not np.isfinite(w).all():
        raise NumericError("aggregation weights must be finite")
    b_acc, a_acc = np.zeros((d, top_rank)), np.zeros((top_rank, l))
    np.add.reduce(b * w[:, None, None], axis=0, out=b_acc[:, :width])
    np.add.reduce(a * w[:, None, None], axis=0, out=a_acc[:width])
    if not (np.isfinite(b_acc).all() and np.isfinite(a_acc).all()):
        raise NumericError("aggregated factors are not finite")
    return replace(
        state,
        global_pair=LoraPair(b=Matrix._wrap(b_acc), a=Matrix._wrap(a_acc)),
        round_index=state.round_index + 1,
        client_ranks=registry,
    )
