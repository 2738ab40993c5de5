"""Tests for server-side rank assignment, selection, distribution, and
aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora.linalg import Matrix
from hetlora.lora import LoraPair, reconstruct, sparsity_score, zero_pad
from hetlora.server import (
    SIMPLE,
    SPARSITY_WEIGHTED,
    ProtocolError,
    ServerState,
    aggregate,
    aggregation_weights,
    assign_ranks,
    distribute,
    select_clients,
)

D, L = 8, 6


def random_pair(seed, rank, scale=1.0):
    rng = np.random.default_rng(seed)
    return LoraPair(
        b=Matrix(rng.standard_normal((D, rank)) * scale),
        a=Matrix(rng.standard_normal((rank, L)) * scale),
    )


def make_state(rank=4, aggregation=SPARSITY_WEIGHTED, num_clients=5):
    return ServerState(
        global_pair=random_pair(999, rank),
        round_index=0,
        aggregation=aggregation,
        client_ranks={i: rank for i in range(num_clients)},
    )


class TestAssignRanks:
    def test_range_and_determinism(self):
        a1 = assign_ranks(50, 2, 16, 0.1, seed=5)
        a2 = assign_ranks(50, 2, 16, 0.1, seed=5)
        assert a1 == a2
        assert all(2 <= r <= 16 for r in a1)
        assert len(a1) == 50

    def test_small_alpha_skews_low(self):
        ranks = assign_ranks(2000, 2, 16, 0.1, seed=0)
        uniform_mean = (2 + 16) / 2
        assert float(np.mean(ranks)) < uniform_mean - 1.0

    def test_alpha_one_is_uniform(self):
        ranks = assign_ranks(4000, 1, 4, 1.0, seed=0)
        freqs = np.bincount(ranks, minlength=5)[1:5] / 4000
        assert np.max(np.abs(freqs - 0.25)) < 0.03

    def test_frequencies_match_power_law(self):
        # pmf proportional to r^(alpha-1); loose frequency check
        alpha = 0.1
        support = np.arange(2, 9)
        want = support.astype(float) ** (alpha - 1)
        want /= want.sum()
        ranks = assign_ranks(8000, 2, 8, alpha, seed=1)
        freqs = np.bincount(ranks, minlength=9)[2:9] / 8000
        assert np.max(np.abs(freqs - want)) < 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_ranks(10, 4, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            assign_ranks(0, 2, 4, 0.1, seed=0)


class TestSelectClients:
    def test_deterministic_per_round(self):
        s1 = select_clients(100, 10, round_index=7, seed=3)
        s2 = select_clients(100, 10, round_index=7, seed=3)
        assert s1 == s2

    def test_varies_across_rounds(self):
        picks = {tuple(select_clients(100, 10, t, seed=3)) for t in range(20)}
        assert len(picks) > 1

    def test_shape(self):
        s = select_clients(30, 12, 0, seed=0)
        assert len(s) == 12 == len(set(s))
        assert s == sorted(s)
        assert all(0 <= i < 30 for i in s)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_clients(5, 6, 0, seed=0)


class TestDistribute:
    def test_truncates_to_client_rank(self):
        state = make_state(rank=4)
        got = distribute(state, 2)
        assert got.rank == 2
        assert np.array_equal(got.b.array, state.global_pair.b.array[:, :2])

    def test_full_rank_client_gets_global(self):
        state = make_state(rank=4)
        assert distribute(state, 4) is state.global_pair

    def test_rank_above_global_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            distribute(make_state(rank=4), 5)


class TestAggregationWeights:
    def test_simple_is_uniform(self):
        pairs = [random_pair(i, 2) for i in range(4)]
        assert aggregation_weights(pairs, SIMPLE) == [0.25] * 4

    def test_sparsity_proportional_to_reconstruction_norm(self):
        pairs = [random_pair(i, 3) for i in range(3)]
        w = aggregation_weights(pairs, SPARSITY_WEIGHTED)
        scores = [sparsity_score(p) for p in pairs]
        want = [s / sum(scores) for s in scores]
        assert np.allclose(w, want, atol=1e-12)

    def test_zero_batch_falls_back_to_uniform(self):
        zeros = [LoraPair(Matrix.zeros(D, 2), Matrix.zeros(2, L))] * 3
        assert aggregation_weights(zeros, SPARSITY_WEIGHTED) == [1 / 3] * 3

    def test_zero_update_gets_zero_weight(self):
        live = random_pair(0, 2)
        dead = LoraPair(Matrix.zeros(D, 2), Matrix.zeros(2, L))
        w = aggregation_weights([live, dead], SPARSITY_WEIGHTED)
        assert w[1] == 0.0 and abs(w[0] - 1.0) < 1e-12

    def test_unknown_aggregation(self):
        with pytest.raises(ValueError):
            aggregation_weights([random_pair(0, 2)], "median")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([SIMPLE, SPARSITY_WEIGHTED]))
    def test_weights_form_a_simplex(self, seed, m, aggregation):
        pairs = [random_pair(seed + i, 1 + (seed + i) % 3) for i in range(m)]
        w = aggregation_weights(pairs, aggregation)
        assert all(x >= 0 for x in w)
        assert abs(sum(w) - 1.0) < 1e-12


class TestAggregate:
    def test_round_index_increments_and_registry_updates(self):
        state = make_state(rank=4)
        updates = [(0, random_pair(1, 2)), (3, random_pair(2, 4))]
        new = aggregate(state, updates)
        assert new.round_index == 1
        assert new.client_ranks[0] == 2
        assert new.client_ranks[3] == 4
        assert new.client_ranks[1] == 4  # untouched

    def test_global_rank_is_registry_max_not_batch_max(self):
        # an unselected client still holds rank 4, so the global must stay
        # at 4 even when everyone in the batch has pruned to 2
        state = make_state(rank=4)
        updates = [(0, random_pair(1, 2)), (1, random_pair(2, 2))]
        new = aggregate(state, updates)
        assert new.global_rank == 4
        # the padding is genuine zeros beyond the batch max
        assert np.all(new.global_pair.b.array[:, 2:] == 0)
        assert np.all(new.global_pair.a.array[2:, :] == 0)

    def test_global_shrinks_when_every_client_pruned(self):
        state = make_state(rank=4, num_clients=2)
        updates = [(0, random_pair(1, 2)), (1, random_pair(2, 3))]
        new = aggregate(state, updates)
        assert new.global_rank == 3

    def test_matches_manual_weighted_padding(self):
        state = make_state(rank=4, aggregation=SPARSITY_WEIGHTED)
        p1, p2 = random_pair(5, 2), random_pair(6, 4)
        new = aggregate(state, [(0, p1), (1, p2)])
        s1, s2 = sparsity_score(p1), sparsity_score(p2)
        w1, w2 = s1 / (s1 + s2), s2 / (s1 + s2)
        b_want = np.zeros((D, 4))
        a_want = np.zeros((4, L))
        b_want[:, :2] += w1 * p1.b.array
        a_want[:2, :] += w1 * p1.a.array
        b_want += w2 * p2.b.array
        a_want += w2 * p2.a.array
        assert np.allclose(new.global_pair.b.array, b_want, atol=1e-15)
        assert np.allclose(new.global_pair.a.array, a_want, atol=1e-15)

    def test_simple_average_of_identical_pairs_is_identity(self):
        state = make_state(rank=3, aggregation=SIMPLE)
        p = random_pair(7, 3)
        new = aggregate(state, [(0, p), (1, p), (2, p)])
        assert np.allclose(new.global_pair.b.array, p.b.array, atol=1e-12)
        assert np.allclose(new.global_pair.a.array, p.a.array, atol=1e-12)

    def test_zero_update_dilutes_simple_but_not_sparsity(self):
        live = random_pair(8, 3)
        dead = LoraPair(Matrix.zeros(D, 3), Matrix.zeros(3, L))
        simple = aggregate(make_state(rank=3, aggregation=SIMPLE),
                           [(0, live), (1, dead)])
        weighted = aggregate(make_state(rank=3, aggregation=SPARSITY_WEIGHTED),
                             [(0, live), (1, dead)])
        # sparsity weighting ignores the dead update entirely
        assert np.allclose(weighted.global_pair.b.array, live.b.array, atol=1e-12)
        # simple averaging halves the surviving factors
        assert np.allclose(simple.global_pair.b.array, 0.5 * live.b.array,
                           atol=1e-12)

    def test_empty_updates_rejected(self):
        with pytest.raises(ValueError):
            aggregate(make_state(), [])

    def test_unknown_aggregation_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ServerState(global_pair=random_pair(0, 2), round_index=0,
                        aggregation="geometric", client_ranks={0: 2})
