"""Server-side protocol: rank assignment, client selection, distribution via
truncation, and aggregation of heterogeneous-rank adapters.

The server keeps one global adapter pair whose rank always equals the
maximum current rank across all registered clients, so distribution can
always truncate down to any client's rank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import seeded_rng
from .lora import LoraPair, aggregate_pairs, sparsity_score, truncate, zero_pad

SIMPLE = "simple"
SPARSITY_WEIGHTED = "sparsity_weighted"
AGGREGATION_STRATEGIES = (SIMPLE, SPARSITY_WEIGHTED)


class ProtocolError(RuntimeError):
    """An invariant of the distribution/aggregation protocol was violated."""


@dataclass(frozen=True)
class ServerState:
    global_pair: LoraPair
    round_index: int
    aggregation: str  # "simple" | "sparsity_weighted"
    client_ranks: dict[int, int]  # registry of every client's current rank

    def __post_init__(self):
        if self.aggregation not in AGGREGATION_STRATEGIES:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")

    @property
    def global_rank(self) -> int:
        return self.global_pair.rank


def assign_ranks(num_clients: int, r_min: int, r_max: int, alpha: float,
                 seed: int) -> tuple[int, ...]:
    """Initial per-client ranks, sampled i.i.d. from pmf(r) proportional to
    r^(alpha - 1) on [r_min, r_max] inclusive.

    Small alpha skews the distribution toward small ranks; alpha = 1 is
    uniform.
    """
    if not 1 <= r_min <= r_max:
        raise ValueError(f"invalid rank range [{r_min}, {r_max}]")
    if num_clients < 1:
        raise ValueError("num_clients must be positive")
    support = np.arange(r_min, r_max + 1)
    weights = support.astype(np.float64) ** (alpha - 1.0)
    rng = seeded_rng(seed).child("rank-assignment")
    return tuple(
        int(support[rng.sample_discrete(weights)]) for _ in range(num_clients)
    )


def select_clients(num_clients: int, num_selected: int, round_index: int,
                   seed: int) -> list[int]:
    """Uniform sample without replacement, deterministic per (seed, round)."""
    if not 1 <= num_selected <= num_clients:
        raise ValueError(
            f"cannot select {num_selected} of {num_clients} clients"
        )
    rng = seeded_rng(seed).child("selection", round_index)
    return rng.subset(num_clients, num_selected)


def distribute(state: ServerState, client_rank: int) -> LoraPair:
    """Truncate the global pair down to the client's current rank."""
    if client_rank > state.global_rank:
        raise ProtocolError(
            f"client rank {client_rank} exceeds global rank {state.global_rank}"
        )
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
    if not updates:
        raise ValueError("updates must be non-empty")
    pairs = [p for _, p in updates]
    new_pair = aggregate_pairs(pairs, aggregation_weights(pairs, state.aggregation))

    registry = dict(state.client_ranks)
    for cid, p in updates:
        registry[cid] = p.rank
    global_rank = max(registry.values())
    # the registry holds every update's rank, so the aggregate is never wider
    if new_pair.rank < global_rank:
        new_pair = zero_pad(new_pair, global_rank)

    return replace(
        state,
        global_pair=new_pair,
        round_index=state.round_index + 1,
        client_ranks=registry,
    )
