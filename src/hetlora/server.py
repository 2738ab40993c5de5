"""Server-side protocol: rank assignment, client selection, distribution via
truncation, and aggregation of heterogeneous-rank adapters.

The server keeps one global adapter pair whose rank always equals the
maximum current rank across all registered clients, so distribution can
always truncate down to any client's rank. Selection is drawn for 32
rounds at a time by linalg.choices, with the bits of one Rng.subset per
round, and the process keeps the last 32 blocks drawn for every run on
the same seed and cohort size. A round's updates reach aggregate as the
cohort's trained stacks (Updates), which it weights and sums as they are.
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


@functools.lru_cache(maxsize=32)
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


@dataclass(frozen=True)
class Updates:
    """A round's trained adapters as the cohort's stacks: client ids[j]
    returns b[j] (d x width) and a[j] (width x l) at rank ranks[j], zero
    beyond it, and width is the largest of the ranks. A round's strategy
    passes client.local_train's stacks trimmed to that width, as views:
    lora.hand_out wrote each client's padding zeros, and local_train's
    prune test the zeros of the ranks a client dropped. Iterates as
    (client id, LoraPair) pairs, each pair truncated to its client's rank."""

    ids: list[int]
    b: np.ndarray
    a: np.ndarray
    ranks: list[int]

    @classmethod
    def of_pairs(cls, updates) -> Updates:
        """(client id, LoraPair) updates as stacks, each pair zero-padded
        to the largest rank."""
        ids, pairs = zip(*updates)
        ranks = [p.rank for p in pairs]
        b = np.zeros((len(pairs), pairs[0].d, max(ranks)))
        a = np.zeros((len(pairs), max(ranks), pairs[0].l))
        for j, p in enumerate(pairs):
            b[j, :, : p.rank], a[j, : p.rank] = p.b.array, p.a.array
        return cls(list(ids), b, a, ranks)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        for j, (k, r) in enumerate(zip(self.ids, self.ranks)):
            yield k, LoraPair(b=Matrix._wrap(self.b[j, :, :r]),
                              a=Matrix._wrap(self.a[j, :r]))


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


def aggregate(state: ServerState,
              updates: Updates | list[tuple[int, LoraPair]]) -> ServerState:
    """Fold a round of client updates into a new server state.

    The registry is updated with the submitting clients' (possibly pruned)
    ranks first; the new global rank is the max current rank across ALL
    clients, so unselected high-rank clients keep their entitled width. If
    every client has pruned below the old global rank the global pair
    shrinks to the new max (the discarded trailing ranks can no longer be
    distributed to anyone).

    The updates come as the cohort's stacks (Updates); a list of (client
    id, LoraPair) pairs is stacked first (Updates.of_pairs). The weighted
    stack is summed update by update, as aggregate_pairs sums the pairs,
    straight into the global width. Raises NumericError for non-finite
    weights, and for a sum that overflows.
    """
    if not updates:
        raise ValueError("updates must be non-empty")
    if not isinstance(updates, Updates):
        updates = Updates.of_pairs(updates)
    registry = {**state.client_ranks, **dict(zip(updates.ids, updates.ranks))}
    # the registry holds every update's rank, so the global is never narrower
    top_rank = max(registry.values())
    b, a = updates.b, updates.a
    w = aggregation_weights(b, a, state.aggregation)
    if not np.isfinite(w).all():
        raise NumericError("aggregation weights must be finite")
    b_acc, a_acc = np.zeros((b.shape[1], top_rank)), np.zeros((top_rank, a.shape[2]))
    np.add.reduce(b * w[:, None, None], axis=0, out=b_acc[:, :b.shape[2]])
    np.add.reduce(a * w[:, None, None], axis=0, out=a_acc[:a.shape[1]])
    if not (np.isfinite(b_acc).all() and np.isfinite(a_acc).all()):
        raise NumericError("aggregated factors are not finite")
    return replace(
        state,
        global_pair=LoraPair(b=Matrix._wrap(b_acc), a=Matrix._wrap(a_acc)),
        round_index=state.round_index + 1,
        client_ranks=registry,
    )
