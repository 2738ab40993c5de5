"""Tests for the protocol runners and their shared accounting."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hetlora import baselines, client, lora, server, tasks
from hetlora.baselines import lora_params, run_strategy
from hetlora.config import STRATEGY_TAGS, ExperimentConfig, load_config
from hetlora.linalg import seeded_rng
from hetlora.records import read_jsonl, to_jsonl_lines, write_jsonl
from hetlora.tasks import SyntheticTaskSpec, generate_task

SPEC = SyntheticTaskSpec(d=12, l=8, true_rank=4, num_clients=10,
                         samples_per_client=16, noise_std=0.1,
                         eval_samples=64, seed=0)


def tiny_cfg(**kwargs):
    base = dict(task=SPEC, r_min=1, r_max=4, rounds=6, clients_per_round=4,
                learning_rate=0.2, seeds=(0,), rank_alpha=0.1,
                reg_weight=0.01, decay=0.99)
    base.update(kwargs)
    return ExperimentConfig(**base)


def homlora(cfg, rank):
    return dataclasses.replace(cfg, strategy="homlora", homlora_rank=rank)


class TestParamAccounting:
    def test_lora_params(self):
        assert lora_params(1, 64, 32) == 96
        assert lora_params(16, 64, 32) == 1536

    def test_param_fraction_exact(self):
        # adapter size relative to the dense base weight: r(d+l) / (d*l)
        for r in (1, 2, 8, 16):
            want = Fraction(r * (64 + 32), 64 * 32)
            assert lora_params(r, 64, 32) / (64 * 32) == float(want)
        assert lora_params(1, 64, 32) / (64 * 32) == 0.046875

    def test_homlora_per_round_comm(self):
        cfg = tiny_cfg()
        task = generate_task(SPEC)
        run = run_strategy(homlora(cfg, 3), 0, task)
        per_dir = cfg.clients_per_round * lora_params(3, SPEC.d, SPEC.l)
        for t, rec in enumerate(run.records, start=1):
            assert rec.down_params == per_dir
            assert rec.up_params == per_dir
            assert rec.cumulative_params == 2 * per_dir * t

    def test_full_ft_per_round_comm(self):
        cfg = tiny_cfg(strategy="full_ft")
        task = generate_task(SPEC)
        run = run_strategy(cfg, 0, task)
        dense = SPEC.d * SPEC.l
        for t, rec in enumerate(run.records, start=1):
            assert rec.down_params == cfg.clients_per_round * dense
            assert rec.up_params == cfg.clients_per_round * dense
            assert rec.cumulative_params == 2 * cfg.clients_per_round * dense * t

    def test_hetlora_upload_never_exceeds_download(self):
        cfg = tiny_cfg(rounds=15)
        task = generate_task(SPEC)
        run = run_strategy(cfg, 1, task)
        for rec in run.records:
            assert rec.up_params <= rec.down_params


class TestEngineBehavior:
    def test_deterministic_replay(self):
        cfg = tiny_cfg()
        task = generate_task(SPEC)
        r1 = run_strategy(cfg, 3, task)
        r2 = run_strategy(cfg, 3, task)
        assert to_jsonl_lines(r1) == to_jsonl_lines(r2)

    def test_client_ranks_monotone_non_increasing(self):
        cfg = tiny_cfg(rounds=20, reg_weight=0.1, decay=0.7)
        task = generate_task(SPEC)
        run = run_strategy(cfg, 2, task)
        curves = list(zip(*(rec.client_ranks for rec in run.records)))
        for c in curves:
            assert all(a >= b for a, b in zip(c, c[1:]))

    def test_initial_loss_identical_across_strategies(self, tmp_path):
        # every strategy starts from a zero effective update; a run of no
        # rounds writes its header alone, which reads back
        cfg = tiny_cfg(rounds=0)
        task = generate_task(SPEC)
        het = run_strategy(cfg, 0, task)
        hom = run_strategy(homlora(cfg, 2), 0, task)
        ful = run_strategy(dataclasses.replace(cfg, strategy="full_ft"), 0, task)
        rec = run_strategy(dataclasses.replace(cfg, strategy="recon_svd"), 0, task)
        assert het.initial_eval_loss == ful.initial_eval_loss
        assert het.initial_eval_loss == rec.initial_eval_loss
        assert het.initial_eval_loss == hom.initial_eval_loss
        runs = [het, hom, ful, rec]
        assert all(r.completed and len(to_jsonl_lines(r)) == 1 for r in runs)
        write_jsonl(runs, tmp_path / "r.jsonl")
        assert ([to_jsonl_lines(r) for r in read_jsonl(tmp_path / "r.jsonl")]
                == [to_jsonl_lines(r) for r in runs])

    def test_homlora_strategy_tag(self):
        cfg = tiny_cfg(rounds=1)
        task = generate_task(SPEC)
        assert run_strategy(homlora(cfg, 4), 0, task).strategy == "homlora_r4"

    def test_recon_matches_factored_engine_on_first_round(self):
        # one client, equal ranks, no pruning: after round 1 the dense
        # consolidated state equals the factored engine's reconstruction
        spec = dataclasses.replace(SPEC, num_clients=1)
        cfg = ExperimentConfig(task=spec, r_min=3, r_max=3, rounds=1,
                               clients_per_round=1, learning_rate=0.2,
                               seeds=(0,), reg_weight=0.0, decay=1.0,
                               aggregation="simple")
        task = generate_task(spec)
        het = run_strategy(cfg, 0, task)
        rec = run_strategy(dataclasses.replace(cfg, strategy="recon_svd"), 0, task)
        assert abs(het.records[0].eval_loss - rec.records[0].eval_loss) < 1e-12

    def test_divergence_marks_run_incomplete(self):
        cfg = tiny_cfg(learning_rate=1e8, rounds=5)
        task = generate_task(SPEC)
        run = run_strategy(cfg, 0, task)
        assert not run.completed
        assert run.failure is not None and "diverged" in run.failure
        assert len(run.records) < cfg.rounds

    def test_run_strategy_regenerates_task_with_run_seed(self):
        cfg = tiny_cfg(rounds=1)
        via_dispatch = run_strategy(cfg, run_seed=5)
        direct_task = generate_task(dataclasses.replace(SPEC, seed=5))
        direct = run_strategy(cfg, 5, direct_task)
        assert to_jsonl_lines(via_dispatch) == to_jsonl_lines(direct)

    def test_run_strategy_dispatch_tags(self):
        cfg = tiny_cfg(rounds=1)
        assert run_strategy(cfg, 0).strategy == "hetlora"
        assert run_strategy(dataclasses.replace(cfg, strategy="full_ft"),
                            0).strategy == "full_ft"
        assert run_strategy(dataclasses.replace(cfg, strategy="recon_svd"),
                            0).strategy == "recon_svd"
        assert run_strategy(
            dataclasses.replace(cfg, strategy="homlora", homlora_rank=2), 0
        ).strategy == "homlora_r2"

    def test_strategy_table_has_every_tag(self):
        assert sorted(baselines._STRATEGIES) == sorted(STRATEGY_TAGS)

    @pytest.mark.parametrize("strategy", ["hetlora", "homlora", "full_ft", "recon_svd"])
    def test_comparison_strategies_ignore_hetlora_settings(self, strategy):
        # the comparison strategies fix the regulariser, pruning and
        # averaging, and homlora and full_ft the ranks too: changing those
        # settings, one at a time or all at once, leaves their streams byte
        # for byte, where it changes every hetlora stream. rank_alpha -1000
        # is valid on [1, 4] and [2, 3], but 3^-1001 underflows to 0, so it
        # would be refused on homlora's one rank
        cfg = tiny_cfg(strategy=strategy, rounds=8, homlora_rank=3)
        changes = dict(reg_weight=0.5, decay=0.5, aggregation="simple")
        if strategy != "recon_svd":
            changes.update(r_min=2, r_max=3, rank_alpha=-1000.0)
        task = generate_task(SPEC)
        want = to_jsonl_lines(run_strategy(cfg, 0, task))
        for change in [{k: v} for k, v in changes.items()] + [changes]:
            got = run_strategy(dataclasses.replace(cfg, **change), 0, task)
            assert (to_jsonl_lines(got) == want) == (strategy != "hetlora"), change


class TestRecovery:
    def test_full_ft_recovers_noiseless_target(self):
        # noiseless interpolation regime: with client subspaces jointly
        # spanning the input space, dense FedAvg drives the held-out loss
        # to numerical zero
        spec = SyntheticTaskSpec(d=8, l=6, true_rank=2, num_clients=12,
                                 samples_per_client=20, noise_std=0.0,
                                 client_complexity=2, eval_samples=64, seed=1)
        cfg = ExperimentConfig(task=spec, strategy="full_ft", homlora_rank=2,
                               r_min=1, r_max=2, rounds=300,
                               clients_per_round=12, learning_rate=0.3,
                               seeds=(1,))
        run = run_strategy(cfg, 1, generate_task(spec))
        assert run.completed
        assert run.final_eval_loss < 1e-6

    def test_homlora_at_true_rank_beats_undersized_on_noiseless_task(self):
        # with no noise, capacity at the true rank fits what rank 1 cannot
        spec = SyntheticTaskSpec(d=8, l=6, true_rank=2, num_clients=12,
                                 samples_per_client=20, noise_std=0.0,
                                 client_complexity=2, eval_samples=64, seed=2)
        cfg = ExperimentConfig(task=spec, homlora_rank=2, r_min=1, r_max=2,
                               rounds=150, clients_per_round=12,
                               learning_rate=0.3, seeds=(2,))
        task = generate_task(spec)
        r2 = run_strategy(homlora(cfg, 2), 2, task)
        r1 = run_strategy(homlora(cfg, 1), 2, task)
        assert r2.final_eval_loss < r1.final_eval_loss


def schedule(cfg, seed):
    """The batch schedule a strategy of cfg takes on the seed's task."""
    task = generate_task(dataclasses.replace(cfg.task, seed=seed))
    return baselines._FactorServer(cfg, task, seed).batches


class TestSharedCaches:
    """A process shares each (task spec, seed)'s task, batch schedule and
    selection blocks across its runs; a cached value has the bits a cold
    run computes."""

    CFG = dataclasses.replace(load_config("default"), rounds=40)
    VARIANTS = (CFG, homlora(CFG, 2), dataclasses.replace(CFG, strategy="full_ft"))

    def test_cold_and_warm_caches_write_the_same_bytes(self, cold_caches):
        def cold(cfg):
            cold_caches()
            return to_jsonl_lines(run_strategy(cfg, 0))

        want = [cold(cfg) for cfg in self.VARIANTS]
        for order in (self.VARIANTS, self.VARIANTS[::-1]):
            cold_caches()
            got = {cfg.tag: to_jsonl_lines(run_strategy(cfg, 0)) for cfg in order}
            assert [got[cfg.tag] for cfg in self.VARIANTS] == want

    def test_a_second_run_on_a_seed_draws_nothing_and_builds_no_task(
            self, cold_caches, monkeypatch):
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def call(*args):
                calls.append(f"{module.__name__}.{name}")
                return real(*args)
            monkeypatch.setattr(module, name, call)

        for module, name in ((client, "choices"), (server, "choices")):
            counting(module, name)
        run_strategy(self.CFG, 0)
        assert set(calls) == {"hetlora.client.choices", "hetlora.server.choices"}
        assert tasks.generate_task.cache_info().misses == 1
        calls.clear()
        for cfg in self.VARIANTS:
            run_strategy(cfg, 0)
        assert calls == []
        # a call that hits the cache builds nothing
        assert tasks.generate_task.cache_info().misses == 1

    def test_cached_values_are_read_only(self, cold_caches):
        task = generate_task(dataclasses.replace(self.CFG.task, seed=0))
        for m in (task.base.w0, task.target_delta, task.pool.inputs, task.pool.targets,
                  task.base_resid, task.clients[0].inputs, task.eval_set.targets,
                  task.eval_gram):
            with pytest.raises(ValueError, match="read-only"):
                m.array[0, 0] = 0.0
        rows = schedule(self.CFG, 0)
        assert rows.dtype == np.uint8 and rows.shape == (40, 10, 5, 8)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0, 0, 0] = 0
        assert baselines._batch_schedule.cache_info().currsize == 1

    def test_a_seed_s_strategies_draw_one_schedule(self, cold_caches):
        # and share one task, so one residual table
        for strategy in STRATEGY_TAGS:
            run_strategy(dataclasses.replace(self.CFG, strategy=strategy), 0)
        info = baselines._batch_schedule.cache_info()
        assert (info.misses, info.hits) == (1, len(STRATEGY_TAGS) - 1)
        assert tasks.generate_task.cache_info().misses == 1

    def test_schedule_rows_are_successive_batch_indices(self, cold_caches):
        # round t's rows are local_iters successive Rng.batch_indices calls
        # on each cohort client's (client seed, "round", t) stream, on both
        # sides of the 32-round slices the schedule is drawn in
        cfg = dataclasses.replace(self.CFG, rounds=70)
        rows, n = schedule(cfg, 3), cfg.task.samples_per_client
        for t in (1, 31, 32, 33, 64, 70):
            cohort = server.select_clients(cfg.task.num_clients, cfg.clients_per_round,
                                           t, 3)
            for j, k in enumerate(cohort):
                rng = seeded_rng(baselines._client_seed(3, k)).child("round", t)
                for step in range(cfg.local_iters):
                    assert np.array_equal(rows[t - 1, j, step],
                                          rng.batch_indices(n, cfg.batch_size))

    def test_a_short_run_does_not_serve_a_long_one(self, cold_caches):
        # a 20-round run's schedule holds rounds 1..20 only, which a
        # 200-round run must not take
        cfg = load_config("default")
        cold = to_jsonl_lines(run_strategy(cfg, 0))
        cold_caches()
        run_strategy(dataclasses.replace(cfg, rounds=20), 0)
        assert to_jsonl_lines(run_strategy(cfg, 0)) == cold

    def test_each_cache_stays_within_its_size(self, cold_caches):
        # one-round runs on 40 seeds: 40 tasks, 40 batch schedules and 40
        # selection blocks
        for seed in range(40):
            run_strategy(tiny_cfg(rounds=1), seed)
        for cache in (tasks.generate_task, baselines._batch_schedule,
                      server._selection_block):
            info = cache.cache_info()
            assert info.misses > info.maxsize >= info.currsize


class TestDenseAverages:
    """The dense servers replace their update by the mean of the cohort's
    trained models: recon_svd by that of the clients' products, full_ft by
    that of their dense updates."""

    CFG = tiny_cfg(reg_weight=0.0, decay=1.0)
    COHORT = [0, 3, 5, 8]

    @staticmethod
    def keep_trained(monkeypatch, name, stacks, kept):
        # copies of the first `stacks` model arguments of the local step
        # `name`, as it leaves them trained
        real = getattr(baselines, name)

        def keeping(task, selected, *args):
            out = real(task, selected, *args)
            kept.append([x.copy() for x in args[:stacks]])
            return out
        monkeypatch.setattr(baselines, name, keeping)

    def test_recon_svd_averages_the_products_of_mixed_ranks(self, monkeypatch):
        cfg = dataclasses.replace(self.CFG, strategy="recon_svd")
        strategy = baselines._ReconSvd(cfg, generate_task(SPEC), 0)
        ranks = [strategy.ranks[k] for k in self.COHORT]
        assert len(set(ranks)) > 1
        kept = []
        self.keep_trained(monkeypatch, "local_train", 2, kept)
        for t in (1, 2):
            strategy.round(self.COHORT, strategy.batches[t - 1])
            [(b, a)] = kept
            kept.clear()
            assert b.shape[2] == max(ranks) and a.shape[1] == max(ranks)
            want = sum(b[j, :, :r] @ a[j, :r] for j, r in enumerate(ranks)) / len(ranks)
            np.testing.assert_allclose(strategy.dense, want, rtol=1e-13, atol=0)

    def test_full_ft_averages_the_trained_updates(self, monkeypatch):
        cfg = dataclasses.replace(self.CFG, strategy="full_ft")
        strategy = baselines._FullFT(cfg, generate_task(SPEC), 0)
        kept = []
        self.keep_trained(monkeypatch, "dense_local_train", 1, kept)
        for t in (1, 2):
            strategy.round(self.COHORT, strategy.batches[t - 1])
            [(local,)] = kept
            kept.clear()
            assert local.shape == (len(self.COHORT), SPEC.d, SPEC.l)
            want = sum(local) / len(local)
            np.testing.assert_allclose(strategy.dense, want, rtol=1e-13, atol=0)


class TestRoundLoop:
    def test_recon_svd_refactors_once_per_round(self, monkeypatch):
        # round 1 hands out the factored init; every later round makes one
        # SVD at the largest rank, however many clients it selects
        calls = []
        real_svd = lora.svd

        def counting_svd(m, k):
            calls.append(k)
            return real_svd(m, k)

        monkeypatch.setattr(lora, "svd", counting_svd)
        cfg = tiny_cfg(strategy="recon_svd", rounds=6)
        run = run_strategy(cfg, 0, generate_task(SPEC))
        assert run.completed and len(run.records) == cfg.rounds
        assert calls == [max(run.records[0].client_ranks)] * (cfg.rounds - 1)

    @pytest.mark.usefixtures("cold_caches")
    def test_no_round_builds_a_seed_sequence(self, monkeypatch):
        # selection and batch streams both come from seed words computed 32
        # rounds at a time, so neither the draws of the run's cohorts and
        # batches nor any round builds a SeedSequence, also across the slice
        # edges at rounds 32 and 33
        cfg = dataclasses.replace(load_config("default"), strategy="hetlora", rounds=40)
        task = generate_task(dataclasses.replace(cfg.task, seed=0))
        builds = []
        real_seed_sequence = np.random.SeedSequence

        def counting(entropy=None, **kwargs):
            builds.append(entropy)
            return real_seed_sequence(entropy, **kwargs)

        def counted(fn):
            def call(*args):
                with monkeypatch.context() as m:
                    m.setattr(np.random, "SeedSequence", counting)
                    return fn(*args)
            return call

        for module, name in ((baselines, "_run_rounds"), (baselines, "draw_batches"),
                             (server, "select_clients")):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        run = run_strategy(cfg, 0, task)
        assert run.completed and len(run.records) == 40
        assert builds == []

    @pytest.mark.usefixtures("cold_caches")
    def test_a_short_run_draws_its_rounds_only(self, monkeypatch):
        # a 5-round run hashes the batch streams of rounds 1..5, and writes
        # the first 5 records of a 70-round run, whose schedule is drawn in
        # slices of rounds 1..32, 33..64 and 65..70; a 0-round run draws none
        cfg = dataclasses.replace(load_config("default"), strategy="hetlora", rounds=5)
        task = generate_task(dataclasses.replace(cfg.task, seed=0))
        counters = []
        real = client.stream_words

        def counting(seeds, rounds, key):
            counters.append(list(rounds))
            return real(seeds, rounds, key)

        monkeypatch.setattr(client, "stream_words", counting)
        short = run_strategy(cfg, 0, task)
        assert counters == [[1, 2, 3, 4, 5]]
        long = run_strategy(dataclasses.replace(cfg, rounds=70), 0, task)
        assert counters[1:] == [list(range(1, 33)), list(range(33, 65)),
                                list(range(65, 71))]
        long.records = long.records[:5]
        assert to_jsonl_lines(short) == to_jsonl_lines(long)
        run_strategy(dataclasses.replace(cfg, rounds=0), 0, task)
        assert len(counters) == 4

    def test_default_hetlora_run_integer_record(self):
        # every round of the default hetlora run on seed 0, across six edges
        # of the 32-round blocks its selections and batches are drawn in.
        # Ranks and traffic are integers, so the pin does not depend on the
        # BLAS, and the traffic carries each round's selection.
        run = run_strategy(load_config("default"), 0)
        assert run.completed and len(run.records) == 200
        digest = hashlib.sha256()
        for r in run.records:
            digest.update(json.dumps([list(r.client_ranks), r.down_params, r.up_params,
                                      r.cumulative_params]).encode())
        assert digest.hexdigest() == (
            "c31739cd09be3d1d35214e0af86e047720aaac9d3a79a97f1972cc638143f92c")
        assert run.records[-1].cumulative_params == 1_905_984
        assert sum(run.records[-1].client_ranks) == 460

    def test_updates_own_their_memory(self, monkeypatch):
        # the tracer keeps every round's updates until the run ends: a
        # second round, on another cohort of the same width, leaves the
        # first round's pairs as they were, and shares no memory with them
        cfg = tiny_cfg(r_min=3, r_max=3, reg_weight=0.0, decay=1.0)
        task = generate_task(SPEC)
        kept = []
        real = baselines.aggregate

        def keeping(state, updates):
            kept.append([(k, p, p.b.array.copy(), p.a.array.copy()) for k, p in updates])
            return real(state, updates)

        monkeypatch.setattr(baselines, "aggregate", keeping)
        strategy = baselines._FactorServer(cfg, task, 0)
        strategy.round([0, 2, 5, 7], strategy.batches[0])
        strategy.round([1, 3, 4, 9], strategy.batches[1])
        assert [k for k, *_ in kept[0]] == [0, 2, 5, 7]
        second = [x for _, p, *_ in kept[1] for x in (p.b.array, p.a.array)]
        for _, p, b, a in kept[0]:
            assert np.array_equal(p.b.array, b) and np.array_equal(p.a.array, a)
            assert not any(np.shares_memory(x, y) for x in (p.b.array, p.a.array)
                           for y in second)

    def test_hetlora_never_refactors(self, monkeypatch):
        monkeypatch.setattr(lora, "svd", None)  # any call would raise
        assert run_strategy(tiny_cfg(), 0, generate_task(SPEC)).completed

    @pytest.mark.parametrize("strategy", ["hetlora", "homlora", "full_ft", "recon_svd"])
    def test_divergence_ends_run_before_recording_the_round(self, strategy):
        cfg = tiny_cfg(strategy=strategy, learning_rate=50.0, rounds=40)
        run = run_strategy(cfg, 0, generate_task(SPEC))
        assert not run.completed
        assert run.failure.startswith(f"round {len(run.records) + 1}: ")
        assert all(math.isfinite(r.eval_loss) for r in run.records)
        assert [r.round_index for r in run.records] == list(
            range(1, len(run.records) + 1))

    def test_overflowing_aggregate_ends_run_with_readable_stream(self, monkeypatch,
                                                                 tmp_path):
        # every client returns finite factors of 1e308, and unit weights
        # make their sum overflow in round 1
        def huge(clients, selected, b, a, ranks, cfg, batches):
            b[...] = a[...] = 1e308
            return ranks

        monkeypatch.setattr(baselines, "local_train", huge)
        monkeypatch.setattr(server, "aggregation_weights",
                            lambda b, a, aggregation: np.ones(len(b)))
        run = run_strategy(tiny_cfg(), 0, generate_task(SPEC))
        assert not run.completed and run.records == []
        assert run.failure == "round 1: aggregated factors are not finite"
        write_jsonl([run], tmp_path / "r.jsonl")
        back = read_jsonl(tmp_path / "r.jsonl")
        assert to_jsonl_lines(back[0]) == to_jsonl_lines(run)
