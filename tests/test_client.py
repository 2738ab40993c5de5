"""Tests for local training and the rank self-pruning rule."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora import baselines
from hetlora import client as client_module
from hetlora.client import (
    _cohort_batches,
    _Tails,
    dense_local_train,
    draw_batches,
    kept_rank,
    local_train,
    tail_block_norm,
)
from hetlora.linalg import Matrix, NumericError, seeded_rng
from hetlora.lora import LoraPair, hand_out, truncate
from hetlora.server import select_clients
from hetlora.tasks import SyntheticTaskSpec, generate_task
from oracles import (
    base_residuals,
    batch_loss,
    dense_batch_loss,
    dense_grads,
    grad,
    local_config,
    lowrank_grads,
    regularized_loss,
    stack,
    stacked_reg_grad,
)

SPEC = SyntheticTaskSpec(d=10, l=8, true_rank=4, num_clients=4,
                         samples_per_client=24, noise_std=0.05,
                         client_complexity=(1, 2, 3, 4), seed=7)
TASK = generate_task(SPEC)
SEEDS = [100 + k for k in range(SPEC.num_clients)]


def random_pair(seed, rank=4, scale=0.2):
    rng = np.random.default_rng(seed)
    return LoraPair(
        b=Matrix(rng.standard_normal((SPEC.d, rank)) * scale),
        a=Matrix(rng.standard_normal((rank, SPEC.l)) * scale),
    )


def batches(task, selected, cfg, round_index, seeds=SEEDS):
    """The selected clients' batch rows of one round, client k drawing on
    its (seeds[k], "round", round_index) stream."""
    return draw_batches([[seeds[k] for k in selected]], [round_index],
                        task.spec.samples_per_client, cfg.batch_size, cfg.local_iters)[0]


def train(task, selected, pairs, cfg, round_index, seeds=SEEDS):
    """local_train of a cohort on the stack of these pairs, on its batches
    of the round: the trained pairs at their new ranks, in cohort order."""
    b, a = stack(pairs)
    ranks = local_train(task, selected, b, a, [p.rank for p in pairs], cfg,
                        batches(task, selected, cfg, round_index, seeds))
    return [LoraPair(Matrix(b[j, :, :r]), Matrix(a[j, :r])) for j, r in enumerate(ranks)]


def dense_train(task, selected, deltas, cfg, round_index):
    """dense_local_train of a cohort on the stack of these updates."""
    local = np.array(deltas, dtype=np.float64)
    dense_local_train(task, selected, local, cfg,
                      batches(task, selected, cfg, round_index))
    return list(local)


def train_one(k, received, cfg, round_index=0):
    """local_train of client k of TASK on a cohort of one: the trained
    pair, at its new rank."""
    [out] = train(TASK, [k], [received], cfg, round_index)
    return out


def dense_one(k, delta, cfg, round_index=0):
    [out] = dense_train(TASK, [k], [delta], cfg, round_index)
    return out


def hand_rolled_sgd(k, received, cfg, dense=False, round_index=0, keep=None,
                    task=TASK, seeds=SEEDS):
    """Client k's SGD from `received`, written out apart from local_train,
    on the task's dataset of client k and its seed seeds[k], with
    the data-loss steps of oracles.lowrank_grads, or with `dense` of
    oracles.dense_grads times the learning rate; with `keep`, the tail
    regulariser acts on the ranks from `keep` on. Returns the trained
    factors at full rank."""
    rng = seeded_rng(seeds[k]).child("round", round_index)
    b = received.b.array.copy()
    a = received.a.array.copy()
    data = task.clients[k]
    r0 = base_residuals(data, task.base.w0.array)
    lr = cfg.learning_rate
    for _ in range(cfg.local_iters):
        idx = rng.batch_indices(data.inputs.rows, cfg.batch_size)
        x = data.inputs.array[idx]
        if dense:
            gb, ga = dense_grads(b, a, task.base.w0.array, x, data.targets.array[idx])
            gb, ga = lr * gb, lr * ga
        else:
            gb, ga = lowrank_grads(b, a, x, r0[idx], lr)
        if keep is not None:
            nb, na = tail_norm(b.T[keep:]), tail_norm(a[keep:])
            gb[:, keep:] += lr * cfg.reg_weight * (na / nb) * b[:, keep:]
            ga[keep:, :] += lr * cfg.reg_weight * (nb / na) * a[keep:, :]
        b = b - gb
        a = a - ga
    return b, a


def tail_norm(rows):
    """The Frobenius norm of a tail given as one row per rank, reduced as
    _Tails.norms documents: each rank's dot product over a contiguous copy,
    summed over the ranks before the square root."""
    return np.sqrt(sum(np.dot(v, v) for v in np.ascontiguousarray(rows)))


def first_diverging_iters(train, cfg, limit):
    """The fewest local steps after which `train(cfg)` raises a
    NumericError, or None within `limit` steps."""
    for iters in range(1, limit + 1):
        try:
            train(dataclasses.replace(cfg, local_iters=iters))
        except NumericError:
            return iters
    return None


class TestClients:
    def test_arrays_view_the_task_pool(self):
        # client k's dataset is rows [k n, (k + 1) n) of the task's pool,
        # read-only views, not copies; the same rows of the task's residual
        # table are x w0' - y of those samples, as one client's product
        # gives them
        n = SPEC.samples_per_client
        resid = TASK.base_resid.array
        assert resid.shape == (SPEC.num_clients * n, SPEC.d) and not resid.flags.writeable
        for k, data in enumerate(TASK.clients):
            rows = slice(k * n, (k + 1) * n)
            got = data.inputs.array
            assert np.array_equal(got, TASK.pool.inputs.array[rows])
            assert np.shares_memory(got, TASK.pool.inputs.array) and not got.flags.writeable
            assert np.array_equal(resid[rows], base_residuals(data, TASK.base.w0.array))


class TestKeptRankAndTailNorm:
    def test_kept_rank_values(self):
        assert kept_rank(10, 0.99) == 9
        assert kept_rank(10, 1.0) == 10
        assert kept_rank(2, 0.99) == 1
        assert kept_rank(1, 0.5) == 1
        assert kept_rank(16, 0.85) == 13
        # one rank is pruned at a time for every initial rank of the default
        # config, so the gamma ablation's 0.99 and 0.95 arms run alike
        for r in range(2, 17):
            assert kept_rank(r, 0.99) == kept_rank(r, 0.95) == r - 1

    def test_no_tail_when_decay_one(self):
        assert tail_block_norm(random_pair(0), 1.0) == 0.0

    def test_rank_one_never_has_tail(self):
        assert tail_block_norm(random_pair(0, rank=1), 0.5) == 0.0

    def test_manual_value(self):
        b = Matrix([[1.0, 2.0], [0.0, 2.0]])
        a = Matrix([[5.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        p = LoraPair(b=b, a=a)
        # decay 0.5 on rank 2 keeps 1: tail is column 2 of b, row 2 of a
        want = np.sqrt(8.0) * 5.0
        assert abs(tail_block_norm(p, 0.5) - want) < 1e-12

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            tail_block_norm(random_pair(0), 0.0)


class TestRegularizedObjective:
    def test_reduces_to_plain_loss_without_reg(self):
        cfg = local_config(SPEC, reg_weight=0.0, decay=0.5)
        p = random_pair(3)
        c = TASK.clients[0]
        assert regularized_loss(p, TASK.base.w0, c, cfg) == batch_loss(p, TASK.base.w0, c)
        gb, ga = stacked_reg_grad([p, random_pair(4, rank=2)], cfg.decay, 0.0)
        assert not gb.any() and not ga.any()

    def test_full_gradient_finite_difference(self):
        # the training step's gradient (data + stacked regularizer) against
        # central differences of the regularized objective, for a cohort of
        # six pairs of mixed rank
        cfg = local_config(SPEC, reg_weight=0.05, decay=0.5)
        c = TASK.clients[1]
        w0 = TASK.base.w0
        rng = np.random.default_rng(41)
        eps = 1e-6
        pairs = [random_pair(500 + trial, rank=2 + trial % 3) for trial in range(6)]
        gb, ga = stacked_reg_grad(pairs, cfg.decay, cfg.reg_weight,
                                  base=[grad(p, w0, c) for p in pairs])
        for j, p in enumerate(pairs):
            assert not gb[j, :, p.rank:].any() and not ga[j, p.rank:].any()
            db = rng.standard_normal(p.b.array.shape)
            da = rng.standard_normal(p.a.array.shape)
            plus = LoraPair(Matrix(p.b.array + eps * db),
                            Matrix(p.a.array + eps * da))
            minus = LoraPair(Matrix(p.b.array - eps * db),
                             Matrix(p.a.array - eps * da))
            fd = (regularized_loss(plus, w0, c, cfg)
                  - regularized_loss(minus, w0, c, cfg)) / (2 * eps)
            analytic = float(np.sum(gb[j, :, : p.rank] * db)
                             + np.sum(ga[j, : p.rank] * da))
            assert abs(fd - analytic) < 1e-5 * max(1.0, abs(analytic))

    def test_zero_tail_uses_zero_subgradient(self):
        # client 0's tail is exactly zero; client 1's is not, and only its
        # tail moves
        b = np.hstack([np.ones((4, 1)), np.zeros((4, 1))])
        a = np.vstack([np.ones((1, 3)), np.zeros((1, 3))])
        zero_tail = LoraPair(Matrix(b), Matrix(a))
        live_tail = LoraPair(Matrix(np.ones((4, 2))), Matrix(np.ones((2, 3))))
        gb, ga = stacked_reg_grad([zero_tail, live_tail], 0.5, 0.5)
        assert np.all(gb[0] == 0) and np.all(ga[0] == 0)
        assert np.all(gb[1, :, 0] == 0) and np.all(gb[1, :, 1] > 0)
        assert np.all(ga[1, 0] == 0) and np.all(ga[1, 1] > 0)

    def test_stacked_tail_norms_match_tail_block_norm(self):
        # one-rank tails (every tail at decay 0.99) and wider ones (decay 0.5
        # on ranks 1..6) give tail_block_norm's bits, whatever the other
        # tails' widths
        for decay, ranks in ((0.99, (1, 2, 5, 3, 1, 4)), (0.5, (1, 2, 5, 3, 6, 4))):
            pairs = [random_pair(60 + k, rank=r) for k, r in enumerate(ranks)]
            b, a = stack(pairs)
            (nb, na), _ = _Tails(ranks, decay).norms(b, a)
            assert (nb * na).tolist() == [tail_block_norm(p, decay) for p in pairs]


class TestLocalTrain:
    def test_one_model_per_client(self):
        b, a = stack([random_pair(1)])
        with pytest.raises(ValueError, match="2 clients but 1 models"):
            local_train(TASK, [0, 1], b, a, [4], local_config(SPEC),
                        batches(TASK, [0, 1], local_config(SPEC), 0))

    def test_deterministic(self):
        cfg = local_config(SPEC, learning_rate=0.1, reg_weight=0.01, decay=0.5)
        out1 = train_one(0, random_pair(1), cfg, round_index=3)
        out2 = train_one(0, random_pair(1), cfg, round_index=3)
        assert out1.rank == out2.rank
        assert np.array_equal(out1.b.array, out2.b.array)
        assert np.array_equal(out1.a.array, out2.a.array)

    def test_round_index_changes_batches(self):
        cfg = local_config(SPEC, learning_rate=0.1)
        out1 = train_one(0, random_pair(1), cfg, round_index=0)
        out2 = train_one(0, random_pair(1), cfg, round_index=1)
        assert not np.array_equal(out1.b.array, out2.b.array)

    def test_matches_hand_rolled_sgd_without_pruning(self):
        # byte-level agreement with an independently written SGD loop on the
        # low-rank gradient formula, and agreement to rounding with the same
        # loop on the dense formula
        cfg = local_config(SPEC, local_iters=4, batch_size=6, learning_rate=0.15,
                           reg_weight=0.0, decay=1.0)
        received = random_pair(11)
        out = train_one(2, received, cfg, round_index=5)
        assert out.rank == received.rank

        b, a = hand_rolled_sgd(2, received, cfg, round_index=5)
        assert np.array_equal(out.b.array, b)
        assert np.array_equal(out.a.array, a)
        b, a = hand_rolled_sgd(2, received, cfg, dense=True, round_index=5)
        np.testing.assert_allclose(out.b.array, b, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.a.array, a, rtol=1e-12, atol=0)

    def test_training_reduces_loss(self):
        cfg = local_config(SPEC, local_iters=20, batch_size=16, learning_rate=0.2)
        received = random_pair(2, scale=0.05)
        before = batch_loss(received, TASK.base.w0, TASK.clients[3])
        out = train_one(3, received, cfg)
        after = batch_loss(out, TASK.base.w0, TASK.clients[3])
        assert after < before

    def test_pure_across_a_prune(self):
        # the same arguments, in a round where client 0 prunes, give the same
        # pairs twice and are left as they were
        cfg = local_config(SPEC, local_iters=10, batch_size=8, learning_rate=0.05,
                           reg_weight=1.0, decay=0.5)
        selected = [0, 1]
        received = [random_pair(7, scale=0.1), random_pair(12, scale=0.1)]
        before = [(p.b.array.copy(), p.a.array.copy()) for p in received]
        first = train(TASK, selected, received, cfg, 0)
        second = train(TASK, selected, received, cfg, 0)
        assert first[0].rank == 2
        for p, q in zip(first, second):
            assert p.rank == q.rank
            assert np.array_equal(p.b.array, q.b.array)
            assert np.array_equal(p.a.array, q.a.array)
        for p, (b, a) in zip(received, before):
            assert np.array_equal(p.b.array, b) and np.array_equal(p.a.array, a)
        assert selected == [0, 1]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_divergence_raises_numeric_error(self):
        cfg = local_config(SPEC, local_iters=50, learning_rate=1e6)
        with pytest.raises(NumericError) as exc_info:
            train_one(0, random_pair(1), cfg)
        assert str(exc_info.value) == "client 0 diverged"

    def test_prunes_when_regularizer_shrinks_tail(self):
        # a strong regularizer on a weak tail must trigger pruning and
        # return the pair at the smaller rank
        cfg = local_config(SPEC, local_iters=10, batch_size=8, learning_rate=0.05,
                           reg_weight=1.0, decay=0.5)
        received = random_pair(7, rank=4, scale=0.1)
        out = train_one(0, received, cfg)
        assert out.rank == kept_rank(4, 0.5) == 2

    def test_no_prune_when_received_tail_is_zero(self):
        # strict decrease: a tail that starts at exactly zero cannot shrink
        # the config refuses learning rate 0, so the settings are a namespace
        cfg = SimpleNamespace(local_iters=3, batch_size=8, learning_rate=0.0,
                              reg_weight=1.0, decay=0.5)
        base = random_pair(8, rank=2)
        b = np.hstack([base.b.array[:, :2], np.zeros((SPEC.d, 2))])
        a = np.vstack([base.a.array[:2, :], np.zeros((2, SPEC.l))])
        received = LoraPair(Matrix(b), Matrix(a))
        out = train_one(1, received, cfg)
        assert out.rank == 4

    def test_no_prune_when_decay_is_one(self):
        cfg = local_config(SPEC, local_iters=5, learning_rate=0.1,
                           reg_weight=1.0, decay=1.0)
        assert train_one(0, random_pair(9), cfg).rank == 4

    def test_pruned_output_is_truncation_of_trained_pair(self):
        cfg_prune = local_config(SPEC, local_iters=10, batch_size=8,
                                 learning_rate=0.05, reg_weight=1.0,
                                 decay=0.5)
        received = random_pair(7, rank=4, scale=0.1)
        out = train_one(0, received, cfg_prune)
        assert out.rank == 2
        # re-run identically but inspect the full trained pair via the same
        # arithmetic with truncation undone: the pruned result must be the
        # leading block of a rank-4 training trajectory, i.e. training then
        # truncating, never retraining at the smaller rank
        b, a = hand_rolled_sgd(0, received, cfg_prune, keep=2)
        assert np.array_equal(out.b.array, b[:, :2])
        assert np.array_equal(out.a.array, a[:2, :])
        b, a = hand_rolled_sgd(0, received, cfg_prune, dense=True, keep=2)
        np.testing.assert_allclose(out.b.array, b[:, :2], rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.a.array, a[:2, :], rtol=1e-12, atol=0)

    def test_rank_is_monotone_under_repeated_training(self):
        # simulate several rounds against a fixed-ish server pair: the
        # client's rank sequence never increases
        cfg = local_config(SPEC, local_iters=5, batch_size=8, learning_rate=0.1,
                           reg_weight=0.3, decay=0.7)
        received = random_pair(21, rank=4, scale=0.1)
        seen = [received.rank]
        for t in range(12):
            out = train_one(0, truncate(received, seen[-1]), cfg, round_index=t)
            seen.append(out.rank)
        assert all(a >= b for a, b in zip(seen, seen[1:]))

    def test_low_complexity_client_prunes_over_time(self):
        # a client whose data needs only rank 1 sheds capacity when
        # repeatedly trained with a tail regularizer in a tiny single-client
        # federation loop
        cfg = local_config(SPEC, local_iters=5, batch_size=8, learning_rate=0.2,
                           reg_weight=0.05, decay=0.7)
        pair = random_pair(33, rank=4, scale=0.1)
        for t in range(60):
            pair = train_one(0, pair, cfg, round_index=t)  # a complexity 1 client
            if pair.rank == 1:
                break
        assert pair.rank < 4


class TestDenseLocalTrain:
    def test_one_model_per_client(self):
        with pytest.raises(ValueError, match="1 clients but 2 models"):
            dense_local_train(TASK, [0], np.zeros((2, SPEC.d, SPEC.l)),
                              local_config(SPEC), batches(TASK, [0], local_config(SPEC), 0))

    def test_full_batch_step_is_dense_gradient_step(self):
        # one step on the whole dataset is delta - lr * grad, with grad the
        # gradient of the batch MSE (oracles.dense_batch_loss), checked by
        # central differences
        data = TASK.clients[2]
        w0 = TASK.base.w0
        lr = 0.05
        cfg = local_config(SPEC, local_iters=1, batch_size=data.inputs.rows,
                           learning_rate=lr)
        delta = np.random.default_rng(29).standard_normal((SPEC.d, SPEC.l)) * 0.2
        stepped = dense_one(2, delta, cfg, round_index=3)
        g = (delta - stepped) / lr
        rng = np.random.default_rng(31)
        eps = 1e-6
        for _ in range(5):
            dd = rng.standard_normal(delta.shape)
            fd = (dense_batch_loss(delta + eps * dd, w0, data)
                  - dense_batch_loss(delta - eps * dd, w0, data)) / (2 * eps)
            analytic = float(np.sum(g * dd))
            assert abs(fd - analytic) < 1e-5 * max(1.0, abs(analytic))

    def test_batches_depend_on_client_and_round_only(self):
        # same (client seed, round): identical bytes; another round: other
        # batches; the received update is never modified in place
        cfg = local_config(SPEC, local_iters=3, batch_size=5, learning_rate=0.1)
        delta = np.zeros((SPEC.d, SPEC.l))
        one = dense_one(1, delta, cfg, round_index=4)
        two = dense_one(1, delta, cfg, round_index=4)
        assert np.array_equal(one, two)
        assert not np.array_equal(one, dense_one(1, delta, cfg, round_index=5))
        assert np.array_equal(delta, np.zeros((SPEC.d, SPEC.l)))  # input untouched

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_divergence_raises_numeric_error(self):
        cfg = local_config(SPEC, local_iters=50, learning_rate=1e8)
        with pytest.raises(NumericError) as e:
            dense_one(0, np.zeros((SPEC.d, SPEC.l)), cfg)
        assert str(e.value) == "client 0 diverged"


class TestCohort:
    """A round's cohort is trained in one stack; each client's result must
    be what it gets trained on its own."""

    CFG = local_config(SPEC, local_iters=8, batch_size=8, learning_rate=0.2,
                       reg_weight=0.3, decay=0.7)
    RANKS = (1, 4, 2, 3)

    def train(self, order):
        """The pairs clients order train in round 2, in cohort order."""
        pairs = [random_pair(70 + k, rank=self.RANKS[k], scale=0.1) for k in order]
        return train(TASK, list(order), pairs, self.CFG, 2)

    def test_permuting_a_cohort_is_bit_identical(self):
        by_order = []
        for order in ((0, 1, 2, 3), (2, 0, 3, 1)):
            by_order.append(dict(zip(order, self.train(order))))
        assert any(p.rank < self.RANKS[k] for k, p in by_order[0].items())
        for k, p in by_order[0].items():
            p2 = by_order[1][k]
            assert p.rank == p2.rank
            assert np.array_equal(p.b.array, p2.b.array)
            assert np.array_equal(p.a.array, p2.a.array)

    def test_permuting_a_dense_cohort_is_bit_identical(self):
        cfg = local_config(SPEC, local_iters=4, batch_size=6, learning_rate=0.1)
        deltas = [np.full((SPEC.d, SPEC.l), 0.01 * k) for k in range(4)]
        out = dense_train(TASK, [0, 1, 2, 3], deltas, cfg, 1)
        back = dense_train(TASK, [3, 2, 1, 0], deltas[::-1], cfg, 1)
        for k in range(4):
            assert np.array_equal(out[k], back[3 - k])

    def test_mixed_rank_cohort_matches_cohorts_of_one(self):
        out = self.train((0, 1, 2, 3))
        for k in range(4):
            [alone] = self.train((k,))
            assert out[k].rank == alone.rank
            for got, want in ((out[k].b.array, alone.b.array),
                              (out[k].a.array, alone.a.array)):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_first_diverging_client_in_cohort_order_is_named(self):
        # alone, the 2nd client takes more local steps to diverge than the
        # 4th; a one-at-a-time loop stops at the 2nd, and so must the cohort
        cfg = local_config(SPEC, local_iters=10, batch_size=8, learning_rate=0.5)
        pairs = [random_pair(1, rank=3, scale=x) for x in (0.1, 3.0, 0.1, 1e60)]
        iters = {k: first_diverging_iters(lambda c: train_one(k, p, c), cfg, 10)
                 for k, p in enumerate(pairs)}
        assert iters[0] is None and iters[2] is None
        assert iters[3] < iters[1] <= cfg.local_iters

        with pytest.raises(NumericError) as exc_info:
            train(TASK, [0, 1, 2, 3], pairs, cfg, 0)
        assert str(exc_info.value) == "client 1 diverged"

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_first_diverging_dense_client_in_cohort_order_is_named(self):
        cfg = local_config(SPEC, local_iters=30, learning_rate=1e8)
        scales = (0.0, 1e100, 0.0, 1e200)
        deltas = [np.full((SPEC.d, SPEC.l), x) for x in scales]
        iters = {k: first_diverging_iters(lambda c: dense_one(k, delta, c), cfg, 30)
                 for k, delta in enumerate(deltas)}
        assert iters[0] is None and iters[2] is None
        assert iters[3] < iters[1] <= cfg.local_iters
        with pytest.raises(NumericError) as exc_info:
            dense_train(TASK, [0, 1, 2, 3], deltas, cfg, 0)
        assert str(exc_info.value) == "client 1 diverged"


class TestBuffers:
    """Each round allocates its own arrays, and the task is read only: no
    call sees what an earlier one left behind."""

    CFG = local_config(SPEC, local_iters=3, batch_size=8, learning_rate=0.2,
                       reg_weight=0.3, decay=0.7)

    def calls(self):
        """Hand-out and local_train, dense_local_train, then both again on
        wider and on narrower cohorts, each as f() -> arrays."""
        def lora(cohort, ranks, t):
            pair = random_pair(90 + t, rank=max(ranks))

            def call():
                b, a = hand_out(pair, ranks)
                new = local_train(TASK, cohort, b, a, ranks, self.CFG,
                                  batches(TASK, cohort, self.CFG, t))
                return [b.copy(), a.copy(), np.array(new)]
            return call

        deltas = [np.full((SPEC.d, SPEC.l), 0.01 * k) for k in range(3)]
        return [lora([1, 3], [2, 1], 5),
                lambda: dense_train(TASK, [2, 0, 3], deltas, self.CFG, 6),
                lora([0, 1, 2, 3], [4, 3, 2, 4], 7),
                lora([2, 0], [1, 2], 40)]

    def test_repeating_a_call_gives_the_same_arrays(self):
        # each call in turn, then all of them again: the second pass sees
        # the task every call of the first left behind
        first = [call() for call in self.calls()]
        for call, want in zip(self.calls(), first):
            got = call()
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_successive_hand_outs_share_no_memory(self):
        pair = random_pair(4, rank=3)
        first = hand_out(pair, [3, 1])
        second = hand_out(pair, [2, 3])
        assert not any(np.shares_memory(x, y) for x in first for y in second)
        assert not any(np.shares_memory(x, y.array) for x in first for y in (pair.b, pair.a))

    def test_hand_out_truncates_and_zero_pads(self):
        pair = random_pair(3, rank=4)
        ranks = [2, 4, 1]
        b, a = hand_out(pair, ranks)
        want_b, want_a = stack([truncate(pair, r) for r in ranks])
        assert np.array_equal(b, want_b) and np.array_equal(a, want_a)

    @pytest.mark.usefixtures("cold_caches")
    def test_a_block_draws_only_the_run_s_rounds(self, monkeypatch):
        # rounds run from 1 to the run's last: a 5-round run's schedule
        # draws rounds 1..5 in one block, a 70-round run's its last block of
        # rounds 65..70, and a 0-round run's none; each round's rows are
        # those its cohort draws alone
        drawn = []
        real = client_module.stream_words

        def counting(seeds, counters, key):
            drawn.append(list(counters))
            return real(seeds, counters, key)

        monkeypatch.setattr(client_module, "stream_words", counting)
        cfg = local_config(SPEC, local_iters=2, batch_size=5)
        n, m = SPEC.num_clients, 2
        seeds = [baselines._client_seed(3, k) for k in range(n)]
        for rounds, want in ((5, [[1, 2, 3, 4, 5]]),
                             (70, [list(range(1, 33)), list(range(33, 65)),
                                   list(range(65, 71))]),
                             (0, [])):
            drawn.clear()
            got = baselines._batch_schedule(3, n, m, rounds, SPEC.samples_per_client,
                                            cfg.batch_size, cfg.local_iters)
            assert drawn == want and len(got) == rounds
            for t in {1, 5, 32, 33, 65, rounds} & set(range(1, rounds + 1)):
                cohort = select_clients(n, m, t, 3)
                assert np.array_equal(got[t - 1], batches(TASK, cohort, cfg, t, seeds))


# tasks whose clients hold fewer samples than a batch of 8, as many, and more
TASKS_BY_SIZE = {n: generate_task(dataclasses.replace(
    SPEC, num_clients=6, samples_per_client=n, client_complexity=(1, 2, 3, 4, 2, 1)))
    for n in (3, 8, 24)}


class TestDrawBatches:
    def test_each_distinct_seed_is_hashed_once(self, monkeypatch):
        # 1,000 clients, 3 a round, for 32 rounds: one hash of the distinct
        # seeds of the cohorts, of which some meet twice, and each round's
        # rows are those its cohort draws alone
        seeds = np.arange(5000, 6000)
        rounds = np.arange(1, 33)
        slots = seeds[[select_clients(1000, 3, t, seed=9) for t in rounds]]
        hashed = []
        real = client_module.stream_words

        def counting(seeds, counters, key):
            hashed.append(list(seeds))
            return real(seeds, counters, key)

        monkeypatch.setattr(client_module, "stream_words", counting)
        got = draw_batches(slots, rounds, 12, 5, 2)
        [members] = hashed
        assert sorted(members) == sorted(set(slots.ravel())) and len(members) < slots.size
        assert got.shape == (32, 3, 2, 5) and got.dtype == np.uint8
        for i, t in enumerate(rounds):
            assert np.array_equal(got[i], draw_batches(slots[i:i + 1], [t], 12, 5, 2)[0])


class TestCohortBatches:
    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, 12), clients=st.integers(1, 5),
           batch_size=st.integers(1, 9), local_iters=st.integers(1, 4),
           round_index=st.integers(0, 500), seed=st.integers(0, 2**32 - 5))
    def test_rows_are_successive_batch_indices(self, size, clients, batch_size,
                                               local_iters, round_index, seed):
        # each selected client's batches are those of successive
        # Rng.batch_indices calls on a fresh (client seed, round) stream,
        # whether it has fewer samples than a batch, as many or more; the
        # cohort is every client, last first
        spec = SyntheticTaskSpec(d=3, l=2, true_rank=1, num_clients=clients,
                                 samples_per_client=size, noise_std=0.0,
                                 client_complexity=1, seed=1, eval_samples=2)
        task = generate_task(spec)
        selected = list(range(clients))[::-1]
        cfg = local_config(spec, local_iters=local_iters, batch_size=batch_size)
        idx = batches(task, selected, cfg, round_index, range(seed, seed + clients))
        xs, r0 = _cohort_batches(task, selected, idx)
        for j, k in enumerate(selected):
            rng = seeded_rng(seed + k).child("round", round_index)
            data = task.clients[k]
            for step in range(local_iters):
                want = rng.batch_indices(size, batch_size)
                assert np.array_equal(idx[j, step], want)
                assert np.array_equal(xs[step, j], data.inputs.array[want])
                # the table's product over the whole pool may round a
                # one-client product differently in the last bit
                np.testing.assert_allclose(
                    r0[step, j], base_residuals(data, task.base.w0.array)[want],
                    rtol=1e-13, atol=1e-15)


class TestLowRankStep:
    """local_train takes its gradients in low-rank form; one stacked round
    must match each client trained alone on the dense-form gradient
    (oracles.dense_grads, the formula of oracles.grad) plus the tail
    regulariser written out."""

    @settings(max_examples=40, deadline=None)
    @given(samples=st.sampled_from(sorted(TASKS_BY_SIZE)),
           order=st.permutations(range(6)), size=st.integers(1, 6),
           ranks=st.lists(st.integers(1, 6), min_size=6, max_size=6),
           seed=st.integers(0, 2**32 - 1), round_index=st.integers(0, 50),
           learning_rate=st.floats(0.01, 0.3), reg_weight=st.floats(0.0, 1.0),
           decay=st.floats(0.3, 1.0), local_iters=st.integers(1, 6))
    def test_stacked_round_matches_dense_form_per_client(
            self, samples, order, size, ranks, seed, round_index, learning_rate,
            reg_weight, decay, local_iters):
        cfg = local_config(SPEC, local_iters=local_iters, batch_size=8,
                           learning_rate=learning_rate, reg_weight=reg_weight,
                           decay=decay)
        rng = np.random.default_rng(seed)
        cohort = order[:size]
        received = [LoraPair(Matrix(rng.standard_normal((SPEC.d, ranks[k])) * 0.2),
                             Matrix(rng.standard_normal((ranks[k], SPEC.l)) * 0.2))
                    for k in cohort]

        task = TASKS_BY_SIZE[samples]
        seeds = range(1000, 1006)
        out = train(task, cohort, received, cfg, round_index, seeds)
        for k, p, got in zip(cohort, received, out):
            keep = kept_rank(p.rank, decay)
            b, a = hand_rolled_sgd(k, p, cfg, True, round_index,
                                   keep=keep if keep < p.rank else None,
                                   task=task, seeds=seeds)
            want = LoraPair(Matrix(b), Matrix(a))
            if tail_block_norm(want, decay) < tail_block_norm(p, decay):
                want = truncate(want, keep)
            assert got.rank == want.rank
            for g, w in ((got.b.array, want.b.array), (got.a.array, want.a.array)):
                assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
