"""Server-side protocol: rank assignment, client selection, distribution via
truncation, and aggregation of heterogeneous-rank adapters.

The server keeps one global adapter pair whose rank always equals the
maximum current rank across all registered clients, so distribution can
always truncate down to any client's rank. Selection is drawn for 32
rounds at a time, with the bits of one Rng.subset per round.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (batches_from_draws, bounded_draws, choice_bounds, seeded_rng,
                     stream_words)
from .lora import LoraPair, aggregate_pairs, sparsity_score, truncate, zero_pad

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
    seeds and rounds below 2**32, drawn 32 rounds at a time."""
    if not 1 <= num_selected <= num_clients:
        raise ValueError(f"cannot pick {num_selected} of {num_clients}")
    if num_selected == num_clients:
        return list(range(num_clients))
    block = _selection_block(num_clients, num_selected, round_index // 32, seed)
    return list(block[round_index % 32])


@functools.lru_cache(maxsize=4)
def _selection_block(n: int, m: int, block: int, seed: int) -> tuple[tuple, ...]:
    # one Generator.choice(n, m, replace=False) per round of the block, in
    # one pass over the rounds' streams, each row then sorted as subset does
    words = stream_words([seed], np.arange(32) + 32 * block, "selection")[0]
    picks = batches_from_draws(bounded_draws(words, choice_bounds(n, m, 1)), n, m)
    picks.sort(axis=1)
    return tuple(map(tuple, picks.tolist()))


def distribute(state: ServerState, client_rank: int) -> LoraPair:
    """Truncate the global pair down to the client's current rank."""
    return truncate(state.global_pair, client_rank)


def aggregation_weights(pairs: list[LoraPair], aggregation: str) -> list[float]:
    """Non-negative weights summing to 1 for a batch of updates.

    Sparsity weighting is proportional to each update's reconstruction
    Frobenius norm; an all-zero-score batch falls back to uniform (the
    normalizer would be 0 otherwise).
    """
    m = len(pairs)
    if m == 0:
        raise ValueError("updates must be non-empty")
    if aggregation == SIMPLE:
        return [1.0 / m] * m
    if aggregation == SPARSITY_WEIGHTED:
        scores = [sparsity_score(p) for p in pairs]
        total = sum(scores)
        if total <= 0:
            return [1.0 / m] * m
        return [s / total for s in scores]
    raise ValueError(f"unknown aggregation {aggregation!r}")


def aggregate(state: ServerState, updates: list[tuple[int, LoraPair]]) -> ServerState:
    """Fold a round of client updates into a new server state.

    The registry is updated with the submitting clients' (possibly pruned)
    ranks first; the new global rank is the max current rank across ALL
    clients, so unselected high-rank clients keep their entitled width. If
    every client has pruned below the old global rank the global pair
    shrinks to the new max (the discarded trailing ranks can no longer be
    distributed to anyone).
    """
    pairs = [p for _, p in updates]
    new_pair = aggregate_pairs(pairs, aggregation_weights(pairs, state.aggregation))

    registry = dict(state.client_ranks)
    for cid, p in updates:
        registry[cid] = p.rank
    top_rank = max(registry.values())
    # the registry holds every update's rank, so the aggregate is never wider
    if new_pair.rank < top_rank:
        new_pair = zero_pad(new_pair, top_rank)

    return replace(
        state,
        global_pair=new_pair,
        round_index=state.round_index + 1,
        client_ranks=registry,
    )
