"""Tests for the protocol runners and their shared accounting."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from hetlora import baselines, lora, server
from hetlora.baselines import lora_params, run_strategy
from hetlora.config import ExperimentConfig
from hetlora.linalg import Matrix
from hetlora.lora import LoraPair
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

    def test_initial_loss_identical_across_strategies(self):
        # every strategy starts from a zero effective update
        cfg = tiny_cfg(rounds=0)
        task = generate_task(SPEC)
        het = run_strategy(cfg, 0, task)
        hom = run_strategy(homlora(cfg, 2), 0, task)
        ful = run_strategy(dataclasses.replace(cfg, strategy="full_ft"), 0, task)
        rec = run_strategy(dataclasses.replace(cfg, strategy="recon_svd"), 0, task)
        assert het.initial_eval_loss == ful.initial_eval_loss
        assert het.initial_eval_loss == rec.initial_eval_loss
        assert het.initial_eval_loss == hom.initial_eval_loss

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
        def huge(states, received, w0, cfg, round_index):
            return [LoraPair(Matrix(np.full((p.d, p.rank), 1e308)),
                             Matrix(np.full((p.rank, p.l), 1e308))) for p in received]

        monkeypatch.setattr(baselines, "local_train", huge)
        monkeypatch.setattr(server, "aggregation_weights",
                            lambda pairs, aggregation: [1.0] * len(pairs))
        run = run_strategy(tiny_cfg(), 0, generate_task(SPEC))
        assert not run.completed and run.records == []
        assert run.failure == "round 1: aggregated factors are not finite"
        write_jsonl([run], tmp_path / "r.jsonl")
        back = read_jsonl(tmp_path / "r.jsonl")
        assert to_jsonl_lines(back[0]) == to_jsonl_lines(run)
