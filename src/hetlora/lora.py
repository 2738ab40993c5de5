"""Low-rank adapter pairs and the structural transforms the protocol needs.

An adapter is the factor pair (b: d x r, a: r x l) whose product is the
additive update to a frozen d x l base weight. All functions here are pure;
truncation/padding act on the factor rank dimension only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, NumericError, svd


@dataclass(frozen=True)
class LoraPair:
    b: Matrix  # d x r
    a: Matrix  # r x l

    def __post_init__(self):
        if self.b.cols != self.a.rows:
            raise ValueError(
                f"factor ranks disagree: b is {self.b.rows}x{self.b.cols}, "
                f"a is {self.a.rows}x{self.a.cols}"
            )

    @property
    def rank(self) -> int:
        return self.b.cols

    @property
    def d(self) -> int:
        return self.b.rows

    @property
    def l(self) -> int:
        return self.a.cols


def truncate(p: LoraPair, r_new: int) -> LoraPair:
    """Keep the first r_new columns of b and rows of a."""
    if not 1 <= r_new <= p.rank:
        raise ValueError(f"r_new={r_new} out of range [1, {p.rank}]")
    if r_new == p.rank:
        return p
    return LoraPair(b=Matrix._wrap(p.b.array[:, :r_new]),
                    a=Matrix._wrap(p.a.array[:r_new, :]))


def zero_pad(p: LoraPair, r_target: int) -> LoraPair:
    """Append zero columns to b and zero rows to a up to r_target.

    The reconstructed product is unchanged.
    """
    if r_target < p.rank:
        raise ValueError(f"r_target={r_target} below current rank {p.rank}")
    if r_target == p.rank:
        return p
    extra = r_target - p.rank
    b = np.hstack([p.b.array, np.zeros((p.d, extra))])
    a = np.vstack([p.a.array, np.zeros((extra, p.l))])
    return LoraPair(b=Matrix._wrap(b), a=Matrix._wrap(a))


def reconstruct(p: LoraPair) -> Matrix:
    """The dense d x l update b @ a."""
    return Matrix._wrap(p.b.array @ p.a.array)


def sparsity_score(p: LoraPair) -> float:
    """Frobenius norm of b @ a via trace((b'b)(aa')), using only r x r
    intermediates.

    Equals the Euclidean norm of the singular values of the reconstructed
    update, so it measures how informative (non-sparse) the update is
    without forming the d x l product.
    """
    btb = p.b.array.T @ p.b.array
    aat = p.a.array @ p.a.array.T
    val = float(np.trace(btb @ aat))
    return float(np.sqrt(max(val, 0.0)))


def aggregate_pairs(pairs: list[LoraPair], weights: list[float]) -> LoraPair:
    """Weighted sum of adapter factors, zero-padded to the max rank in the
    batch.

    Aggregation happens on the factors, not on reconstructed products; the
    reconstruction of the result therefore contains all cross-client
    factor products. Raises NumericError for non-finite weights, and for
    a weighted sum that overflows.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    if len(weights) != len(pairs):
        raise ValueError("weights and pairs must have the same length")
    w = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(w).all():
        raise NumericError("aggregation weights must be finite")
    d, l = pairs[0].d, pairs[0].l
    for p in pairs:
        if p.d != d or p.l != l:
            raise ValueError("all pairs must share base dimensions")
    r_max = max(p.rank for p in pairs)
    b_acc = np.zeros((d, r_max))
    a_acc = np.zeros((r_max, l))
    for p, wk in zip(pairs, w):
        b_acc[:, : p.rank] += wk * p.b.array
        a_acc[: p.rank, :] += wk * p.a.array
    if not (np.isfinite(b_acc).all() and np.isfinite(a_acc).all()):
        raise NumericError("aggregated factors are not finite")
    return LoraPair(b=Matrix._wrap(b_acc), a=Matrix._wrap(a_acc))


def refactor_svd(delta: np.ndarray, r: int) -> LoraPair:
    """Factor the best rank-r approximation of delta into an adapter pair.

    Each factor carries the square roots of the singular values, so the two
    factor norms are equal, which conditions subsequent SGD best. Rank by
    rank the result does not depend on r: truncating the refactoring at
    rank R to r < R gives exactly the refactoring at r.
    """
    u, s, vt = svd(delta, r)
    root = np.sqrt(s)
    return LoraPair(b=Matrix._wrap(u * root), a=Matrix._wrap(root[:, None] * vt))
