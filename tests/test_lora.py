"""Unit and property tests for adapter pairs and their transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora.linalg import Matrix, NumericError, svd
from hetlora.lora import (
    LoraPair,
    aggregate_pairs,
    reconstruct,
    refactor_svd,
    sparsity_score,
    truncate,
    zero_pad,
)


def random_pair(rng, d=6, l=5, rank=3, scale=1.0):
    return LoraPair(
        b=Matrix(rng.standard_normal((d, rank)) * scale),
        a=Matrix(rng.standard_normal((rank, l)) * scale),
    )


pair_strategy_seeds = st.integers(min_value=0, max_value=100_000)


class TestPairBasics:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LoraPair(b=Matrix.zeros(4, 2), a=Matrix.zeros(3, 5))

    def test_shape_properties(self):
        p = LoraPair(b=Matrix.zeros(4, 2), a=Matrix.zeros(2, 5))
        assert (p.d, p.rank, p.l) == (4, 2, 5)

    def test_reconstruct_matches_naive_product(self):
        rng = np.random.default_rng(0)
        p = random_pair(rng)
        want = np.zeros((p.d, p.l))
        for i in range(p.d):
            for j in range(p.l):
                for k in range(p.rank):
                    want[i, j] += p.b.array[i, k] * p.a.array[k, j]
        assert np.allclose(reconstruct(p).array, want, atol=1e-12)


class TestTruncatePad:
    def test_truncate_bounds(self):
        p = random_pair(np.random.default_rng(1))
        with pytest.raises(ValueError):
            truncate(p, 0)
        with pytest.raises(ValueError):
            truncate(p, p.rank + 1)

    def test_pad_bounds(self):
        p = random_pair(np.random.default_rng(1))
        with pytest.raises(ValueError):
            zero_pad(p, p.rank - 1)

    @settings(max_examples=50, deadline=None)
    @given(pair_strategy_seeds, st.integers(min_value=1, max_value=4))
    def test_pad_then_truncate_roundtrip(self, seed, extra):
        p = random_pair(np.random.default_rng(seed))
        back = truncate(zero_pad(p, p.rank + extra), p.rank)
        assert np.array_equal(back.b.array, p.b.array)
        assert np.array_equal(back.a.array, p.a.array)

    @settings(max_examples=50, deadline=None)
    @given(pair_strategy_seeds, st.integers(min_value=0, max_value=4))
    def test_padding_preserves_reconstruction(self, seed, extra):
        p = random_pair(np.random.default_rng(seed))
        padded = zero_pad(p, p.rank + extra)
        assert np.array_equal(reconstruct(padded).array, reconstruct(p).array)

    def test_truncation_is_partial_outer_product_sum(self):
        rng = np.random.default_rng(4)
        p = random_pair(rng, rank=4)
        kept = 2
        partial = sum(
            np.outer(p.b.array[:, k], p.a.array[k, :]) for k in range(kept)
        )
        assert np.allclose(reconstruct(truncate(p, kept)).array, partial, atol=1e-12)


class TestSparsityScore:
    @settings(max_examples=50, deadline=None)
    @given(pair_strategy_seeds)
    def test_matches_frobenius_of_product(self, seed):
        p = random_pair(np.random.default_rng(seed))
        assert abs(sparsity_score(p) - np.linalg.norm(reconstruct(p).array)) < 1e-8

    def test_matches_singular_value_norm(self):
        p = random_pair(np.random.default_rng(9), d=8, l=7, rank=3)
        _, s, _ = svd(reconstruct(p).array, 3)
        assert abs(sparsity_score(p) - np.sqrt((s**2).sum())) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(pair_strategy_seeds, st.floats(min_value=-3, max_value=3,
                                          allow_nan=False))
    def test_homogeneous_in_factor_scale(self, seed, c):
        p = random_pair(np.random.default_rng(seed))
        scaled = LoraPair(b=Matrix(p.b.array * c), a=p.a)
        assert abs(sparsity_score(scaled) - abs(c) * sparsity_score(p)) < 1e-8

    def test_zero_pair(self):
        assert sparsity_score(LoraPair(Matrix.zeros(4, 2), Matrix.zeros(2, 3))) == 0.0


class TestAggregate:
    def test_validation(self):
        p = random_pair(np.random.default_rng(0))
        with pytest.raises(ValueError):
            aggregate_pairs([], [])
        with pytest.raises(ValueError):
            aggregate_pairs([p], [0.5, 0.5])
        with pytest.raises(ValueError):
            aggregate_pairs([p, random_pair(np.random.default_rng(1), d=7)],
                            [0.5, 0.5])
        with pytest.raises(NumericError):
            aggregate_pairs([p], [float("nan")])

    def test_overflowing_sum_raises(self):
        # finite factors and weights whose weighted sum is not finite
        big = LoraPair(Matrix(np.full((3, 2), 1e308)), Matrix(np.full((2, 4), 1e308)))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            aggregate_pairs([big, big], [1.0, 1.0])

    def test_single_pair_identity(self):
        p = random_pair(np.random.default_rng(2))
        agg = aggregate_pairs([p], [1.0])
        assert np.array_equal(agg.b.array, p.b.array)
        assert np.array_equal(agg.a.array, p.a.array)

    def test_pads_to_batch_max_rank(self):
        rng = np.random.default_rng(3)
        p1 = random_pair(rng, rank=1)
        p3 = random_pair(rng, rank=3)
        agg = aggregate_pairs([p1, p3], [0.5, 0.5])
        assert agg.rank == 3
        # ranks beyond p1's rank get contributions only from p3
        assert np.allclose(agg.b.array[:, 1:], 0.5 * p3.b.array[:, 1:], atol=1e-15)
        assert np.allclose(agg.a.array[1:, :], 0.5 * p3.a.array[1:, :], atol=1e-15)

    def test_factor_average_vs_naive_padding(self):
        # independent oracle: pad explicitly with numpy, average, compare
        rng = np.random.default_rng(8)
        pairs = [random_pair(rng, rank=r) for r in (1, 2, 4)]
        weights = [0.2, 0.3, 0.5]
        r_max = 4
        b_want = np.zeros((6, r_max))
        a_want = np.zeros((r_max, 5))
        for p, w in zip(pairs, weights):
            bp = np.pad(p.b.array, ((0, 0), (0, r_max - p.rank)))
            ap = np.pad(p.a.array, ((0, r_max - p.rank), (0, 0)))
            b_want += w * bp
            a_want += w * ap
        agg = aggregate_pairs(pairs, weights)
        assert np.allclose(agg.b.array, b_want, atol=1e-15)
        assert np.allclose(agg.a.array, a_want, atol=1e-15)

    def test_cross_terms_appear_in_reconstruction(self):
        # aggregating factors is NOT averaging products: with unit weights
        # the difference is exactly the cross-client factor products
        rng = np.random.default_rng(13)
        p1 = random_pair(rng, rank=1)
        p2 = random_pair(rng, rank=2)
        agg = aggregate_pairs([p1, p2], [1.0, 1.0])
        diff = (reconstruct(agg).array
                - reconstruct(p1).array - reconstruct(p2).array)
        cross = (p1.b.array @ p2.a.array[:1, :]
                 + p2.b.array[:, :1] @ p1.a.array)
        assert np.max(np.abs(diff - cross)) < 1e-12


class TestRefactorSvd:
    def test_exact_for_low_rank_input(self):
        rng = np.random.default_rng(5)
        p = random_pair(rng, d=8, l=6, rank=2)
        dense = reconstruct(p).array
        again = refactor_svd(dense, 2)
        assert np.allclose(reconstruct(again).array, dense, atol=1e-10)

    def test_best_rank_r_truncation(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((8, 6))
        u, s, vt = svd(m, 6)
        want = u[:, :2] * s[:2] @ vt[:2, :]
        got = reconstruct(refactor_svd(m, 2)).array
        assert np.allclose(got, want, atol=1e-10)

    def test_balanced_split_equalizes_factor_norms(self):
        rng = np.random.default_rng(7)
        p = refactor_svd(rng.standard_normal((8, 6)), 3)
        for k in range(3):
            nb = np.linalg.norm(p.b.array[:, k])
            na = np.linalg.norm(p.a.array[k, :])
            assert abs(nb - na) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(pair_strategy_seeds, st.integers(1, 6), st.integers(1, 6),
           st.data())
    def test_truncated_refactoring_is_refactoring_at_lower_rank(
            self, seed, d, l, data):
        # the recon_svd server refactors once at the largest rank and hands
        # out truncations; they must be exactly the lower-rank refactorings
        m = np.random.default_rng(seed).standard_normal((d, l))
        big = data.draw(st.integers(1, min(d, l)), label="R")
        r = data.draw(st.integers(1, big), label="r")
        got = truncate(refactor_svd(m, big), r)
        want = refactor_svd(m, r)
        assert np.array_equal(got.b.array, want.b.array)  # bit-exact
        assert np.array_equal(got.a.array, want.a.array)
