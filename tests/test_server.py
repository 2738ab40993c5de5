"""Tests for server-side rank assignment, selection, distribution, and
aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora import server
from hetlora.client import draw_batches, kept_rank, local_train
from hetlora.linalg import Matrix, seeded_rng
from hetlora.lora import LoraPair, aggregate_pairs, sparsity_score
from hetlora.server import (
    SIMPLE,
    SPARSITY_WEIGHTED,
    ServerState,
    Updates,
    aggregate,
    aggregation_weights,
    assign_ranks,
    distribute,
    select_clients,
)
from hetlora.tasks import SyntheticTaskSpec, generate_task
from oracles import local_config, stack, updates

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

    def test_one_rank_draws_nothing(self, monkeypatch):
        # homlora's ranks: every client at the one rank, and no stream built
        monkeypatch.setattr(server, "seeded_rng", None)
        assert assign_ranks(5, 3, 3, 0.1, seed=0) == (3,) * 5

    def test_frequencies_match_power_law(self):
        # pmf proportional to r^(alpha-1); loose frequency check
        alpha = 0.1
        support = np.arange(2, 9)
        want = support.astype(float) ** (alpha - 1)
        want /= want.sum()
        ranks = assign_ranks(8000, 2, 8, alpha, seed=1)
        freqs = np.bincount(ranks, minlength=9)[2:9] / 8000
        assert np.max(np.abs(freqs - want)) < 0.03


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
        with pytest.raises(ValueError, match="cannot pick 6 of 5"):
            select_clients(5, 6, 0, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 300),
           seed=st.one_of(st.just(0), st.integers(0, 2**32 - 1)))
    def test_blocks_keep_subset_bits(self, data, n, seed):
        # a selection is Rng.subset of its (seed, "selection", round) stream,
        # whether rounds come out of order, across 32-round blocks, or pick
        # every client
        m = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="m")
        for t in (31, 32, 0, 64, 33):
            want = seeded_rng(seed).child("selection", t).subset(n, m)
            assert select_clients(n, m, t, seed) == want


class TestDistribute:
    def test_truncates_to_client_rank(self):
        state = make_state(rank=4)
        got = distribute(state, 2)
        assert got.rank == 2
        assert np.array_equal(got.b.array, state.global_pair.b.array[:, :2])

    def test_full_rank_client_gets_global(self):
        state = make_state(rank=4)
        assert distribute(state, 4) is state.global_pair

    def test_rank_above_global_is_refused(self):
        with pytest.raises(ValueError, match="out of range"):
            distribute(make_state(rank=4), 5)


def weights(pairs, aggregation):
    """aggregation_weights of the pairs' padded stack, as a list."""
    return aggregation_weights(*stack(pairs), aggregation).tolist()


class TestAggregationWeights:
    def test_simple_is_uniform(self):
        pairs = [random_pair(i, 2) for i in range(4)]
        assert weights(pairs, SIMPLE) == [0.25] * 4

    def test_sparsity_proportional_to_reconstruction_norm(self):
        # mixed ranks: the padding adds nothing to a score
        pairs = [random_pair(i, 1 + i) for i in range(3)]
        w = weights(pairs, SPARSITY_WEIGHTED)
        scores = [sparsity_score(p) for p in pairs]
        want = [s / sum(scores) for s in scores]
        assert np.allclose(w, want, rtol=1e-14, atol=0)

    def test_zero_batch_falls_back_to_uniform(self):
        zeros = [LoraPair(Matrix.zeros(D, 2), Matrix.zeros(2, L))] * 3
        assert weights(zeros, SPARSITY_WEIGHTED) == [1 / 3] * 3

    def test_zero_update_gets_zero_weight(self):
        live = random_pair(0, 2)
        dead = LoraPair(Matrix.zeros(D, 2), Matrix.zeros(2, L))
        w = weights([live, dead], SPARSITY_WEIGHTED)
        assert w[1] == 0.0 and abs(w[0] - 1.0) < 1e-12

    def test_unknown_aggregation(self):
        with pytest.raises(ValueError):
            weights([random_pair(0, 2)], "median")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([SIMPLE, SPARSITY_WEIGHTED]))
    def test_weights_form_a_simplex(self, seed, m, aggregation):
        pairs = [random_pair(seed + i, 1 + (seed + i) % 3) for i in range(m)]
        w = weights(pairs, aggregation)
        assert all(x >= 0 for x in w)
        assert abs(sum(w) - 1.0) < 1e-12


class TestAggregate:
    def test_round_index_increments_and_registry_updates(self):
        state = make_state(rank=4)
        new = aggregate(state, updates([(0, random_pair(1, 2)), (3, random_pair(2, 4))]))
        assert new.round_index == 1
        assert new.client_ranks[0] == 2
        assert new.client_ranks[3] == 4
        assert new.client_ranks[1] == 4  # untouched

    def test_global_pair_rank_is_registry_max_not_batch_max(self):
        # an unselected client still holds rank 4, so the global must stay
        # at 4 even when everyone in the batch has pruned to 2
        state = make_state(rank=4)
        new = aggregate(state, updates([(0, random_pair(1, 2)), (1, random_pair(2, 2))]))
        assert new.global_pair.rank == 4
        # the padding is genuine zeros beyond the batch max
        assert np.all(new.global_pair.b.array[:, 2:] == 0)
        assert np.all(new.global_pair.a.array[2:, :] == 0)

    def test_global_shrinks_when_every_client_pruned(self):
        state = make_state(rank=4, num_clients=2)
        new = aggregate(state, updates([(0, random_pair(1, 2)), (1, random_pair(2, 3))]))
        assert new.global_pair.rank == 3

    def test_matches_manual_weighted_padding(self):
        state = make_state(rank=4, aggregation=SPARSITY_WEIGHTED)
        p1, p2 = random_pair(5, 2), random_pair(6, 4)
        new = aggregate(state, updates([(0, p1), (1, p2)]))
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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.lists(st.integers(1, 5), min_size=1, max_size=6),
           st.sampled_from([SIMPLE, SPARSITY_WEIGHTED]))
    def test_equals_the_protocol_definitions(self, seed, ranks, aggregation):
        # aggregate_pairs with sparsity_score's weights, zero-padded to the
        # registry's largest rank: bit for bit under simple averaging, to
        # rounding under the batched scores
        state = make_state(rank=3, aggregation=aggregation, num_clients=8)
        pairs = [random_pair(seed + j, r) for j, r in enumerate(ranks)]
        new = aggregate(state, updates(list(enumerate(pairs))))
        scores = [sparsity_score(p) for p in pairs]
        w = ([1 / len(pairs)] * len(pairs) if aggregation == SIMPLE
             else [x / sum(scores) for x in scores])
        (b_want,), (a_want,) = stack([aggregate_pairs(pairs, w)],
                                     max(new.client_ranks.values()))
        for got, ref in ((new.global_pair.b.array, b_want),
                         (new.global_pair.a.array, a_want)):
            if aggregation == SIMPLE:
                assert np.array_equal(got, ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-15)

    def test_simple_average_of_identical_pairs_is_identity(self):
        state = make_state(rank=3, aggregation=SIMPLE)
        p = random_pair(7, 3)
        new = aggregate(state, updates([(0, p), (1, p), (2, p)]))
        assert np.allclose(new.global_pair.b.array, p.b.array, atol=1e-12)
        assert np.allclose(new.global_pair.a.array, p.a.array, atol=1e-12)

    def test_zero_update_dilutes_simple_but_not_sparsity(self):
        live = random_pair(8, 3)
        dead = LoraPair(Matrix.zeros(D, 3), Matrix.zeros(3, L))
        simple = aggregate(make_state(rank=3, aggregation=SIMPLE),
                           updates([(0, live), (1, dead)]))
        weighted = aggregate(make_state(rank=3, aggregation=SPARSITY_WEIGHTED),
                             updates([(0, live), (1, dead)]))
        # sparsity weighting ignores the dead update entirely
        assert np.allclose(weighted.global_pair.b.array, live.b.array, atol=1e-12)
        # simple averaging halves the surviving factors
        assert np.allclose(simple.global_pair.b.array, 0.5 * live.b.array,
                           atol=1e-12)

    def test_empty_updates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            aggregate(make_state(),
                      Updates([], np.zeros((0, D, 1)), np.zeros((0, 1, L)), []))
        with pytest.raises(ValueError, match="non-empty"):
            aggregate(make_state(), [])

    def test_unknown_aggregation_rejected_at_aggregation(self):
        # ServerState takes any name; folding the first round refuses it
        state = make_state(aggregation="geometric")
        with pytest.raises(ValueError, match="geometric"):
            aggregate(state, updates([(0, random_pair(0, 4))]))

    @pytest.mark.parametrize("aggregation", [SIMPLE, SPARSITY_WEIGHTED])
    def test_a_pruned_client_s_dropped_ranks_do_not_reach_the_global(self, aggregation):
        # clients 0, 1 and 3 train ranks 4, 1 and 3 at width 4 under a strong
        # regulariser, so the rank-4 and rank-3 clients prune, to 2 and 1;
        # local_train leaves every client's stacks zero beyond its new rank
        # (and not beyond it), so the round's updates,
        # the stacks trimmed to the largest new rank, fold into the global
        # pair as aggregate_pairs of the truncated pairs
        spec = SyntheticTaskSpec(d=D, l=L, true_rank=3, num_clients=4,
                                 samples_per_client=24, noise_std=0.05, seed=5)
        task = generate_task(spec)
        cfg = local_config(spec, local_iters=10, batch_size=8, learning_rate=0.05,
                           reg_weight=1.0, decay=0.5)
        state = make_state(rank=4, aggregation=aggregation, num_clients=4)
        ids, ranks = [0, 1, 3], [4, 1, 3]
        b, a = stack([random_pair(20 + j, r, scale=0.1) for j, r in enumerate(ranks)], 4)
        rows = draw_batches([[100 + k for k in ids]], [1], spec.samples_per_client,
                            cfg.batch_size, cfg.local_iters)[0]
        new_ranks = local_train(task, ids, b, a, ranks, cfg, rows)
        assert new_ranks == [kept_rank(4, 0.5), 1, kept_rank(3, 0.5)] == [2, 1, 1]
        for j, r in enumerate(new_ranks):
            assert not (b[j, :, r:].any() or a[j, r:].any())
            assert b[j, :, :r].any() and a[j, :r].any()
        width = max(new_ranks)
        got = Updates(ids, b[:, :, :width], a[:, :width], new_ranks)
        kept = [LoraPair(Matrix(b[j, :, :r]), Matrix(a[j, :r]))
                for j, r in enumerate(new_ranks)]
        new = aggregate(state, got)
        assert new.client_ranks == {0: 2, 1: 1, 2: 4, 3: 1}
        scores = [sparsity_score(p) for p in kept]
        w = [1 / 3] * 3 if aggregation == SIMPLE else [x / sum(scores) for x in scores]
        (b_want,), (a_want,) = stack([aggregate_pairs(kept, w)], 4)
        for got_f, ref in ((new.global_pair.b.array, b_want),
                           (new.global_pair.a.array, a_want)):
            np.testing.assert_allclose(got_f, ref, rtol=1e-13, atol=1e-15)

    def test_a_pair_list_folds_as_its_stacks(self):
        # a caller holding (client id, LoraPair) pairs gets the state the
        # stacked updates give, bit for bit
        state = make_state(rank=4, num_clients=6)
        pairs = [(4, random_pair(30, 2)), (0, random_pair(31, 4)), (5, random_pair(32, 1))]
        by_list, by_stack = aggregate(state, pairs), aggregate(state, updates(pairs))
        assert by_list.client_ranks == by_stack.client_ranks
        assert list(by_list.client_ranks) == list(by_stack.client_ranks)
        assert np.array_equal(by_list.global_pair.b.array, by_stack.global_pair.b.array)
        assert np.array_equal(by_list.global_pair.a.array, by_stack.global_pair.a.array)
