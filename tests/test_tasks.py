"""Tests for synthetic task generation and the loss/gradient oracles."""

import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora.linalg import Matrix, svd
from hetlora.lora import LoraPair, refactor_svd
from hetlora.tasks import (
    ClientDataset,
    SyntheticTaskSpec,
    dense_loss,
    generate_task,
    loss,
)
from oracles import batch_loss, dense_batch_loss, grad

SPEC = SyntheticTaskSpec(d=10, l=8, true_rank=4, num_clients=6,
                         samples_per_client=12, noise_std=0.05, seed=3)


class TestSpecValidation:
    def test_bad_dims(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(d=0, l=4, true_rank=1, num_clients=1)

    def test_no_clients_or_eval_samples(self):
        with pytest.raises(ValueError, match="at least one client"):
            dataclasses.replace(SPEC, num_clients=0)
        with pytest.raises(ValueError, match="eval_samples"):
            dataclasses.replace(SPEC, eval_samples=0)

    def test_dataset_rows_must_pair_up(self):
        with pytest.raises(ValueError, match="equal sample counts"):
            ClientDataset(inputs=Matrix(np.ones((3, SPEC.l))),
                          targets=Matrix(np.ones((2, SPEC.d))))

    def test_bad_true_rank(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(d=4, l=4, true_rank=5, num_clients=1)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(d=4, l=4, true_rank=2, num_clients=1,
                              noise_std=-0.1)

    def test_bad_target_shape_params(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(d=4, l=4, true_rank=2, num_clients=1,
                              target_norm=0.0)
        with pytest.raises(ValueError):
            SyntheticTaskSpec(d=4, l=4, true_rank=2, num_clients=1,
                              target_spectrum_decay=1.5)

    def test_sample_counts_forms(self):
        # every client holds samples_per_client samples, which must be >= 1
        assert [c.inputs.rows for c in generate_task(SPEC).clients] == [12] * 6
        for counts in (0, -3):
            with pytest.raises(ValueError, match="samples_per_client"):
                dataclasses.replace(SPEC, samples_per_client=counts)

    def test_complexity_forms(self):
        explicit = dataclasses.replace(SPEC, client_complexity=(1, 2, 3, 4, 1, 2))
        assert generate_task(explicit).complexities == (1, 2, 3, 4, 1, 2)
        const = dataclasses.replace(SPEC, client_complexity=2)
        assert generate_task(const).complexities == (2,) * 6
        # an out-of-range rank, a list of the wrong length or an unknown
        # form is rejected when the spec is built
        for bad in (5, 0, (1, 2), (1, 2, 3, 5, 1, 2), "zipf"):
            with pytest.raises(ValueError, match="client_complexity"):
                dataclasses.replace(SPEC, client_complexity=bad)


class TestGeneration:
    def test_deterministic_in_seed(self):
        t1 = generate_task(SPEC)
        t2 = generate_task(SPEC)
        assert np.array_equal(t1.base.w0.array, t2.base.w0.array)
        assert np.array_equal(t1.target_delta.array, t2.target_delta.array)
        for c1, c2 in zip(t1.clients, t2.clients):
            assert np.array_equal(c1.inputs.array, c2.inputs.array)
            assert np.array_equal(c1.targets.array, c2.targets.array)

    def test_clients_view_one_pool(self):
        # every client's rows are a read-only view of the pooled arrays, in
        # client order, so the task holds one copy of the client data
        t = generate_task(SPEC)
        pool = t.pool
        assert pool.inputs.rows == 72
        row = 0
        for c in t.clients:
            for part, pooled in ((c.inputs.array, pool.inputs.array),
                                 (c.targets.array, pool.targets.array)):
                assert part.base is pooled and not part.flags.writeable
                assert np.array_equal(part, pooled[row:row + c.inputs.rows])
            row += c.inputs.rows

    def test_seed_changes_everything(self):
        t1 = generate_task(SPEC)
        t2 = generate_task(dataclasses.replace(SPEC, seed=4))
        assert not np.array_equal(t1.base.w0.array, t2.base.w0.array)
        assert not np.array_equal(t1.target_delta.array, t2.target_delta.array)

    def test_target_norm_and_exact_rank(self):
        t = generate_task(SPEC)
        assert abs(np.linalg.norm(t.target_delta.array) - SPEC.target_norm) < 1e-12
        _, s, _ = svd(t.target_delta.array, min(SPEC.d, SPEC.l))
        assert s[SPEC.true_rank - 1] > 1e-8
        assert s[SPEC.true_rank] < 1e-12

    def test_target_spectrum_decay(self):
        t = generate_task(SPEC)
        _, s, _ = svd(t.target_delta.array, SPEC.true_rank)
        ratios = s[1:] / s[:-1]
        assert np.allclose(ratios, SPEC.target_spectrum_decay, atol=1e-10)

    def test_client_inputs_live_in_complexity_subspace(self):
        t = generate_task(SPEC)
        for c, rho in zip(t.clients, t.complexities):
            got = np.linalg.matrix_rank(c.inputs.array, tol=1e-10)
            assert got == min(rho, c.inputs.rows)

    def test_eval_targets_are_noiseless(self):
        t = generate_task(SPEC)
        w_full = t.base.w0.array + t.target_delta.array
        assert np.array_equal(t.eval_set.targets.array,
                              t.eval_set.inputs.array @ w_full.T)

    def test_initial_eval_loss_is_half_norm_squared(self):
        # a zero adapter's held-out loss estimates 0.5 * ||target||^2
        t = generate_task(dataclasses.replace(SPEC, eval_samples=4096))
        zero = LoraPair(Matrix.zeros(SPEC.d, 1), Matrix.zeros(1, SPEC.l))
        got = loss(zero, t)
        assert abs(got - 0.5 * SPEC.target_norm**2) < 0.01

    def test_exact_recovery_gives_zero_eval_loss(self):
        t = generate_task(SPEC)
        star = refactor_svd(t.target_delta.array, SPEC.true_rank)
        assert loss(star, t) < 1e-12

    def test_noiseless_targets_match_model(self):
        spec = dataclasses.replace(SPEC, noise_std=0.0)
        t = generate_task(spec)
        w_full = t.base.w0.array + t.target_delta.array
        for c in t.clients:
            assert np.array_equal(c.targets.array, c.inputs.array @ w_full.T)

    def test_low_complexity_client_needs_only_rank_one(self):
        # for a client whose inputs span 1 dimension, the least-squares
        # optimal adapter is rank 1: the best rank-1 fit matches the best
        # unconstrained fit
        spec = dataclasses.replace(SPEC, client_complexity=1, noise_std=0.1)
        t = generate_task(spec)
        c = t.clients[0]
        resid_target = c.targets.array - c.inputs.array @ t.base.w0.array.T
        delta_opt = (np.linalg.pinv(c.inputs.array) @ resid_target).T
        assert np.linalg.matrix_rank(delta_opt, tol=1e-10) == 1
        full_fit = dense_batch_loss(delta_opt, t.base.w0, c)
        rank1 = refactor_svd(delta_opt, 1)
        assert abs(batch_loss(rank1, t.base.w0, c) - full_fit) < 1e-10


class TestLossGrad:
    def setup_method(self):
        self.task = generate_task(SPEC)
        rng = np.random.default_rng(17)
        self.pair = LoraPair(
            b=Matrix(rng.standard_normal((SPEC.d, 3)) * 0.3),
            a=Matrix(rng.standard_normal((3, SPEC.l)) * 0.3),
        )

    def test_loss_matches_per_sample_loop(self):
        c = self.task.eval_set
        w = self.task.base.w0.array + self.pair.b.array @ self.pair.a.array
        total = 0.0
        for i in range(c.inputs.rows):
            r = w @ c.inputs.array[i] - c.targets.array[i]
            total += 0.5 * float(r @ r)
        assert abs(loss(self.pair, self.task) - total / c.inputs.rows) < 1e-10

    def test_factor_grad_finite_difference(self):
        c = self.task.clients[1]
        w0 = self.task.base.w0
        gb, ga = grad(self.pair, w0, c)
        rng = np.random.default_rng(23)
        eps = 1e-6
        for _ in range(5):
            db = rng.standard_normal(self.pair.b.array.shape)
            da = rng.standard_normal(self.pair.a.array.shape)
            plus = LoraPair(Matrix(self.pair.b.array + eps * db),
                            Matrix(self.pair.a.array + eps * da))
            minus = LoraPair(Matrix(self.pair.b.array - eps * db),
                             Matrix(self.pair.a.array - eps * da))
            fd = (batch_loss(plus, w0, c) - batch_loss(minus, w0, c)) / (2 * eps)
            analytic = float(np.sum(gb * db) + np.sum(ga * da))
            assert abs(fd - analytic) < 1e-5 * max(1.0, abs(analytic))


class TestEvalLoss:
    """loss and dense_loss take the held-out loss through the eval set's
    Gram matrix; they must equal the direct residual form."""

    TASK = generate_task(SPEC)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, SPEC.l),
           scale=st.floats(1e-3, 10.0))
    def test_equals_the_direct_residual_form(self, seed, rank, scale):
        rng = np.random.default_rng(seed)
        p = LoraPair(Matrix(rng.standard_normal((SPEC.d, rank)) * scale),
                     Matrix(rng.standard_normal((rank, SPEC.l))))
        delta = p.b.array @ p.a.array
        want = dense_batch_loss(delta, self.TASK.base.w0, self.TASK.eval_set)
        assert loss(p, self.TASK) == pytest.approx(want, rel=1e-12, abs=0)
        assert dense_loss(Matrix(delta), self.TASK) == pytest.approx(want, rel=1e-12,
                                                                     abs=0)

    def test_zero_update_gives_half_mean_target_norm(self):
        x = self.TASK.eval_set.inputs.array
        want = 0.5 * np.mean(np.sum((x @ self.TASK.target_delta.array.T) ** 2, axis=1))
        zero = Matrix.zeros(SPEC.d, SPEC.l)
        assert dense_loss(zero, self.TASK) == pytest.approx(want, rel=1e-12, abs=0)
        assert loss(LoraPair(Matrix.zeros(SPEC.d, 1), Matrix.zeros(1, SPEC.l)),
                    self.TASK) == dense_loss(zero, self.TASK)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_update_gives_non_finite_loss(self, value):
        # a diverging run must still end on its eval loss (finite matrices
        # refuse such values, so the test wraps its arrays as the engine does)
        delta = np.zeros((SPEC.d, SPEC.l))
        delta[3, 5] = value
        with np.errstate(over="ignore", invalid="ignore"):
            got = dense_loss(Matrix._wrap(delta), self.TASK)
            b = np.zeros((SPEC.d, 1))
            b[3, 0] = value
            factored = loss(LoraPair(Matrix._wrap(b), Matrix(np.ones((1, SPEC.l)))),
                            self.TASK)
        assert not np.isfinite(got) and not np.isfinite(factored)


# 100 hetlora rounds of the default config on seed 0, in a fresh process:
# the minor page faults per round, task and schedule builds included
FAULTS_PER_ROUND = """
import dataclasses, resource
from hetlora.baselines import run_strategy
from hetlora.config import load_config
from hetlora.tasks import generate_task
cfg = dataclasses.replace(load_config("default"), strategy="hetlora", rounds=100)
task = generate_task(dataclasses.replace(cfg.task, seed=0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_strategy(cfg, 0, task)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.rounds)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_a_first_run_s_rounds_stay_off_the_page_fault_path():
    # building the residual table frees a block larger than a round's
    # arrays, which raises glibc's mmap and trim thresholds above them, so
    # even a process's first run keeps its round temporaries on the heap
    # instead of mapping and faulting in about 100 pages a round anew;
    # BLAS is pinned to one thread as bench/run.py pins it, and the
    # allocator runs with its default settings
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_ROUND], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 20
