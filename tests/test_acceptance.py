"""Acceptance suite for the simulator.

Each criterion's test prints one `[criterion N] PASS/FAIL` line
summarizing the check. Criteria 1-3 and 8-9 are algebraic/infrastructure
checks; criteria 4-7 assert qualitative training dynamics on the default
desk-scale benchmark (d=64, l=32, true rank 8, 100 clients, 10 per round,
200 rounds, 3 seeds).

Known-red dynamics checks (see README, "Known limitations"): the global
adapter of every factored arm collapses to the rank that a steady share of
clients holds, rank 1 in every pruning arm and rank 2 at decay 1, while
recon_svd keeps rank 2 (TestGlobalRankCollapse pins the collapse); so
every pruning arm of the decay ablation ends on one plateau, and two of
its arms even write the same streams, which the test beside criterion 6
checks. Criterion 5's "beats recon_svd / full fine-tuning worst" clauses
and criterion 6's decay-factor ordering are therefore expected to fail;
they are kept faithful rather than weakened.
"""

import dataclasses
import functools
import math
import time
from unittest import mock

import numpy as np
import pytest

from hetlora import baselines
from hetlora import client as client_module
from hetlora.baselines import _client_seed, lora_params, run_strategy
from hetlora.cli import main
from hetlora.client import kept_rank
from hetlora.config import LEARNING_RATE_GRID, load_config
from hetlora.harness import run_experiment, select_learning_rate
from hetlora.linalg import Matrix, seeded_rng, svd
from hetlora.lora import (
    LoraPair,
    aggregate_pairs,
    reconstruct,
    sparsity_score,
)
from hetlora.records import (
    RoundRecord,
    RunResult,
    rounds_to_target,
    to_jsonl_lines,
    write_jsonl,
)
from hetlora.tasks import dense_loss, generate_task, loss
from oracles import (
    base_residuals,
    dense_grads,
    grad,
    local_config,
    lowrank_grads,
    regularized_loss,
    stack,
    stacked_reg_grad,
)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


@functools.cache
def default_cfg():
    cfg = load_config("default")
    # threads=3 is accepted but seeds still run in order in one thread;
    # byte identity across threads settings is criterion 9's subject
    return dataclasses.replace(cfg, threads=3)


def runs(strategy: str, **updates):
    """The default config's runs of a strategy, with some fields changed."""
    return [run for run, _ in runs_and_models(strategy, **updates)]


def runs_and_models(strategy: str, **updates):
    """Those runs, each with the server's model after its last round as a
    dense d x l update: B·A of the global pair, or the dense update."""
    return _run(dataclasses.replace(default_cfg(), strategy=strategy, **updates))


@functools.cache
def _run(cfg):
    # cached on the resolved config, so that runs("hetlora") and
    # runs("hetlora", decay=0.99), the same config, train once; _run.__wrapped__
    # trains without the cache
    models = []
    run_rounds = baselines._run_rounds

    def keep_model(strategy, run_seed):
        run = run_rounds(strategy, run_seed)
        server = getattr(strategy, "server", None)
        models.append(strategy.dense if server is None
                      else reconstruct(server.global_pair).array)
        return run

    with mock.patch.object(baselines, "_run_rounds", keep_model):
        return list(zip(run_experiment(cfg), models, strict=True))


def finals(rs):
    return [r.final_eval_loss for r in rs]


def random_pair(rng, d, l, rank, scale=1.0):
    return LoraPair(
        b=Matrix(rng.standard_normal((d, rank)) * scale),
        a=Matrix(rng.standard_normal((rank, l)) * scale),
    )


class TestCriterion1Algebra:
    def test_cross_term_identity_and_sparsity_oracle(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        d, l = 12, 9
        worst_cross = 0.0
        for i in range(100):
            if i < 30:
                r1, r2 = 1, 2
            else:
                r1, r2 = rng.integers(1, 9, size=2)
            p1 = random_pair(rng, d, l, int(r1))
            p2 = random_pair(rng, d, l, int(r2))
            (b1, b2), (a1, a2) = stack([p1, p2])

            # unit weights: reconstructing the factor sum leaves exactly the
            # cross-client factor products beyond the per-client products
            agg = aggregate_pairs([p1, p2], [1.0, 1.0])
            diff = (reconstruct(agg).array - reconstruct(p1).array
                    - reconstruct(p2).array)
            cross = b1 @ a2 + b2 @ a1
            worst_cross = max(worst_cross, float(np.max(np.abs(diff - cross))))

            # general weights: the same identity with w1*w2 on the cross term
            w1, w2 = rng.uniform(0.1, 1.0, size=2)
            agg_w = aggregate_pairs([p1, p2], [float(w1), float(w2)])
            diff_w = (reconstruct(agg_w).array
                      - w1 * w1 * reconstruct(p1).array
                      - w2 * w2 * reconstruct(p2).array)
            worst_cross = max(
                worst_cross, float(np.max(np.abs(diff_w - w1 * w2 * cross)))
            )

        worst_score = 0.0
        for _ in range(100):
            p = random_pair(rng, d, l, int(rng.integers(1, 9)))
            _, s, _ = svd(reconstruct(p).array, min(d, l))
            worst_score = max(
                worst_score,
                abs(sparsity_score(p) - float(np.sqrt((s**2).sum()))),
            )
        elapsed = time.perf_counter() - start
        ok = worst_cross < 1e-12 and worst_score < 1e-8 and elapsed < 10
        report(1, ok,
               f"cross-term max err {worst_cross:.2e} (tol 1e-12), "
               f"sparsity-vs-SVD max err {worst_score:.2e} (tol 1e-8), "
               f"{elapsed:.1f}s")


class TestCriterion2Gradients:
    def test_regularized_objective_finite_differences(self):
        start = time.perf_counter()
        from hetlora.tasks import SyntheticTaskSpec

        spec = SyntheticTaskSpec(d=10, l=8, true_rank=4, num_clients=10,
                                 samples_per_client=16, noise_std=0.1, seed=11)
        task = generate_task(spec)
        rng = np.random.default_rng(7)
        eps = 1e-6
        worst = 0.0
        # each state is trained in a cohort with a wider pair, so its
        # regularizer gradient comes from zero-padded stacked factors
        wider = random_pair(np.random.default_rng(8), spec.d, spec.l, 8, scale=0.4)
        for state_idx in range(10):
            rank = int(rng.integers(2, 7))
            p = random_pair(rng, spec.d, spec.l, rank, scale=0.4)
            cfg = local_config(
                spec,
                reg_weight=float(rng.uniform(0.01, 0.2)),
                decay=float(rng.uniform(0.4, 0.9)),
            )
            batch = task.clients[state_idx]
            gb, ga = stacked_reg_grad([p, wider], cfg.decay, cfg.reg_weight,
                                      base=[grad(p, task.base.w0, batch),
                                            grad(wider, task.base.w0, batch)])
            gb_arr, ga_arr = gb[0, :, :rank], ga[0, :rank]
            for _ in range(20):
                db = rng.standard_normal(p.b.array.shape)
                da = rng.standard_normal(p.a.array.shape)
                plus = LoraPair(Matrix(p.b.array + eps * db),
                                Matrix(p.a.array + eps * da))
                minus = LoraPair(Matrix(p.b.array - eps * db),
                                 Matrix(p.a.array - eps * da))
                fd = (regularized_loss(plus, task.base.w0, batch, cfg)
                      - regularized_loss(minus, task.base.w0, batch, cfg)
                      ) / (2 * eps)
                analytic = float(np.sum(gb_arr * db) + np.sum(ga_arr * da))
                worst = max(worst,
                            abs(fd - analytic) / max(1.0, abs(analytic)))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-5 and elapsed < 10
        report(2, ok,
               f"max relative gradient error {worst:.2e} over 10 states x 20 "
               f"directions (tol 1e-5), {elapsed:.1f}s")


class TestCriterion3HomloraReduction:
    def test_engine_matches_direct_fedavg_reference(self):
        # the engine at r_min=r_max=r, no regularizer, decay 1, simple
        # averaging must be byte-identical to a plainly written FedAvg over
        # the two factors with the low-rank gradient formula, and agree with
        # the same FedAvg on the dense gradient formula to rounding; like the
        # engine, the reference computes each client's base residuals
        # x w0' - y once, over all its samples
        cfg = dataclasses.replace(default_cfg(), rounds=10)
        spec = dataclasses.replace(cfg.task, seed=0)
        task = generate_task(spec)
        r = 4
        engine = run_strategy(
            dataclasses.replace(cfg, strategy="homlora", homlora_rank=r), 0, task)

        # --- independent reference ---
        w0 = task.base.w0
        d, l = spec.d, spec.l
        m = cfg.clients_per_round

        def fedavg(dense):
            init_rng = seeded_rng(0).child("init")
            b_glob = np.zeros((d, r))
            a_glob = init_rng.gaussian(r, l, std=cfg.init_std).array.copy()
            pair = LoraPair(Matrix(b_glob.copy()), Matrix(a_glob.copy()))
            ref = RunResult(seed=0, strategy=f"homlora_r{r}",
                            initial_eval_loss=loss(pair, task))
            per_dir = r * (d + l) * m
            cumulative = 0
            for t in range(1, cfg.rounds + 1):
                selected = seeded_rng(0).child("selection", t).subset(
                    spec.num_clients, m)
                b_acc = np.zeros((d, r))
                a_acc = np.zeros((r, l))
                for k in selected:
                    rng = seeded_rng(_client_seed(0, k)).child("round", t)
                    b = b_glob.copy()
                    a = a_glob.copy()
                    data = task.clients[k]
                    r0 = base_residuals(data, w0.array)
                    for _ in range(cfg.local_iters):
                        idx = rng.batch_indices(data.inputs.rows, cfg.batch_size)
                        x = data.inputs.array[idx]
                        lr = cfg.learning_rate
                        if dense:
                            gb, ga = dense_grads(b, a, w0.array, x, data.targets.array[idx])
                            gb, ga = lr * gb, lr * ga
                        else:
                            gb, ga = lowrank_grads(b, a, x, r0[idx], lr)
                        b -= gb
                        a -= ga
                    b_acc[:, :r] += (1.0 / m) * b
                    a_acc[:r, :] += (1.0 / m) * a
                b_glob, a_glob = b_acc, a_acc
                cumulative += 2 * per_dir
                pair = LoraPair(Matrix(b_glob.copy()), Matrix(a_glob.copy()))
                ref.records.append(RoundRecord(
                    round_index=t,
                    eval_loss=loss(pair, task),
                    client_ranks=(r,) * spec.num_clients,
                    down_params=per_dir,
                    up_params=per_dir,
                    cumulative_params=cumulative,
                    wall_clock=0.0,
                ))
            return ref

        exact = to_jsonl_lines(engine) == to_jsonl_lines(fedavg(False))
        dense = fedavg(True)
        worst = max(abs(e.eval_loss - f.eval_loss) / f.eval_loss
                    for e, f in zip(engine.records, dense.records))
        close = (len(engine.records) == len(dense.records) == cfg.rounds
                 and worst < 1e-12)
        report(3, exact and close,
               "engine trace vs direct FedAvg reference over 10 rounds: "
               + ("byte-identical" if exact else "traces differ")
               + f"; vs the dense-gradient FedAvg: max relative eval-loss "
               f"difference {worst:.1e} (tol 1e-12)")


class TestCriterion4RankTradeoff:
    def test_high_rank_faster_low_rank_lower_final(self):
        r16 = runs("homlora", homlora_rank=16)
        r2 = runs("homlora", homlora_rank=2)
        faster = 0
        lower_final = 0
        details = []
        for a, b in zip(r16, r2):
            target = 0.5 * a.initial_eval_loss
            t16 = rounds_to_target(a, target)
            t2 = rounds_to_target(b, target)
            if t16 is not None and (t2 is None or t16 < t2):
                faster += 1
            if b.final_eval_loss <= a.final_eval_loss:
                lower_final += 1
            details.append(f"seed {a.seed}: t16={t16} t2={t2} "
                           f"final r2={b.final_eval_loss:.4g} "
                           f"r16={a.final_eval_loss:.4g}")
        ok = faster >= 2 and lower_final >= 2
        report(4, ok,
               f"r16 faster to half-initial on {faster}/3 seeds, r2 final "
               f"<= r16 final on {lower_final}/3 seeds ({'; '.join(details)})")


class TestCriterion5Superiority:
    def test_heterogeneous_vs_baselines(self):
        het = finals(runs("hetlora"))
        hom2 = finals(runs("homlora", homlora_rank=2))
        hom16 = finals(runs("homlora", homlora_rank=16))
        recon = finals(runs("recon_svd"))
        _, full_runs = select_learning_rate(
            dataclasses.replace(default_cfg(), strategy="full_ft"),
            grid=LEARNING_RATE_GRID,
        )
        full = finals(full_runs)

        het_wins = sum(
            1 for h, a, b, c in zip(het, hom2, hom16, recon)
            if h <= a and h <= b and h <= c
        )
        means = {
            "hetlora": float(np.mean(het)),
            "homlora_r2": float(np.mean(hom2)),
            "homlora_r16": float(np.mean(hom16)),
            "recon_svd": float(np.mean(recon)),
            "full_ft": float(np.mean(full)),
        }
        full_best = means["full_ft"] <= min(
            v for k, v in means.items() if k != "full_ft"
        )
        ok = het_wins >= 2 and full_best
        report(5, ok,
               f"hetlora beats r2+r16+recon jointly on {het_wins}/3 seeds "
               f"(need >=2); full_ft best overall: {full_best}; mean finals "
               + ", ".join(f"{k}={v:.4g}" for k, v in means.items()))


class TestCriterion6GammaAblation:
    def test_decay_factor_ordering(self):
        gammas = (1.0, 0.99, 0.95, 0.85)
        by_gamma = {g: finals(runs("hetlora", decay=g)) for g in gammas}
        seeds = len(by_gamma[1.0])
        prune_helps = sum(
            1 for i in range(seeds) if by_gamma[0.99][i] <= by_gamma[1.0][i]
        )
        aggressive_worst = sum(
            1 for i in range(seeds)
            if by_gamma[0.85][i] >= max(by_gamma[g][i] for g in gammas)
        )
        ok = prune_helps >= 2 and aggressive_worst >= 2
        report(6, ok,
               f"gamma=0.99 <= gamma=1 on {prune_helps}/{seeds} seeds, "
               f"gamma=0.85 worst on {aggressive_worst}/{seeds} seeds; "
               "per-gamma mean finals "
               + ", ".join(f"{g}={float(np.mean(v)):.4g}"
                           for g, v in by_gamma.items()))

    def test_gammas_0_99_and_0_95_run_one_protocol(self):
        # at r_max = 16 both decays keep rank r - 1 of every rank a client
        # can prune from, so two of the ordering's arms write the same bytes
        cfg = default_cfg()
        assert cfg.r_max == 16 and cfg.seeds == (0, 1, 2)
        assert all(kept_rank(r, 0.99) == kept_rank(r, 0.95) == r - 1
                   for r in range(2, cfg.r_max + 1))
        for slow, fast in zip(runs("hetlora", decay=0.99), runs("hetlora", decay=0.95),
                              strict=True):
            assert to_jsonl_lines(slow) == to_jsonl_lines(fast)


def singular_values(delta: np.ndarray) -> np.ndarray:
    return np.linalg.svd(delta, compute_uv=False)


def floor_two_kept_rank(rank: int, decay: float) -> int:
    """kept_rank with a floor of 2: max(2, floor(decay * rank)) above rank
    2, and rank otherwise, so no client prunes below rank 2."""
    return rank if rank <= 2 else max(2, math.floor(decay * rank))


class TestGlobalRankCollapse:
    """Why criteria 5 and 6 are red: the global adapter's B·A keeps only
    the directions of the smallest rank a steady share of clients holds.
    aggregate sums the cohort's zero-padded stacks, so a global rank index
    that no client of a round holds gets zeros that round, and local SGD
    regrows an index only in proportion to its size. With pruning,
    clients reach kept_rank's floor of 1, and B·A ends at rank 1; at
    decay 1 no client prunes below r_min = 2, and it ends at rank 2."""

    @pytest.mark.parametrize("decay", [0.99, 0.85])
    def test_a_pruning_arm_ends_at_rank_one(self, decay):
        # 0.99 is the default; 0.95 runs its protocol (the test beside
        # criterion 6), so these are criterion 6's pruning arms
        ratios, losses = [], []
        for run, delta in runs_and_models("hetlora", decay=decay):
            s = singular_values(delta)
            task = generate_task(dataclasses.replace(default_cfg().task, seed=run.seed))
            u, t, vt = svd(task.target_delta.array, 1)
            rank_one = dense_loss(Matrix._wrap((u * t) @ vt), task)
            ratios.append(s[1] / s[0])
            losses.append(run.final_eval_loss / rank_one)
        print(f"[rank collapse] decay {decay}: sigma2/sigma1 "
              + ", ".join(f"{r:.1e}" for r in ratios)
              + "; final loss / target's rank-1 truncation loss "
              + ", ".join(f"{x:.3f}" for x in losses))
        assert all(r < 1e-12 for r in ratios)
        assert all(1.0 <= x <= 1.3 for x in losses)

    def test_decay_one_ends_at_rank_two(self):
        spectra = [singular_values(delta)
                   for _, delta in runs_and_models("hetlora", decay=1.0)]
        print("[rank collapse] decay 1: sigma2 "
              + ", ".join(f"{s[1]:.3f}" for s in spectra) + "; sigma3/sigma1 "
              + ", ".join(f"{s[2] / s[0]:.1e}" for s in spectra))
        assert all(s[2] / s[0] < 1e-12 and s[1] > 0.05 for s in spectra)

    def test_recon_svd_recovers_sigma2_and_stops_at_rank_two(self):
        # averaging products, not factors, recovers the target's sigma2 in
        # full, but not its sigma3; what stops it at rank 2 is open
        ratios = []
        for run, delta in runs_and_models("recon_svd"):
            task = generate_task(dataclasses.replace(default_cfg().task, seed=run.seed))
            ratios.append(singular_values(delta)[1:3]
                          / singular_values(task.target_delta.array)[1:3])
        print("[rank collapse] recon_svd: sigma2 and sigma3 over the target's "
              + ", ".join(f"{r2:.3f} {r3:.4f}" for r2, r3 in ratios))
        assert all(r2 >= 0.95 and r3 < 0.05 for r2, r3 in ratios)

    def test_a_floor_of_two_ends_where_decay_one_does(self, monkeypatch):
        # with no client pruned below rank 2, the default arm keeps sigma2
        # and ends within 3% of the decay-1 arm on every seed
        monkeypatch.setattr(client_module, "kept_rank", floor_two_kept_rank)
        floor_two = _run.__wrapped__(default_cfg())
        plain = runs("hetlora", decay=1.0)
        gaps = [abs(run.final_eval_loss / ref.final_eval_loss - 1)
                for (run, _), ref in zip(floor_two, plain, strict=True)]
        sigma2 = [singular_values(delta)[1] for _, delta in floor_two]
        print("[rank collapse] floor of 2: sigma2 "
              + ", ".join(f"{x:.3f}" for x in sigma2) + "; final loss off decay 1's by "
              + ", ".join(f"{g:.2%}" for g in gaps))
        assert all(x > 0.05 for x in sigma2)
        assert all(g <= 0.03 for g in gaps)


class TestCriterion7PruningTracksComplexity:
    def test_low_complexity_clients_end_smaller(self):
        # every client starts at rank 8
        cfg = dataclasses.replace(default_cfg(), r_min=8, r_max=8)
        per_seed = []
        ok = True
        for seed in cfg.seeds:
            spec = dataclasses.replace(cfg.task, seed=seed)
            task = generate_task(spec)
            run = run_strategy(cfg, seed, task)
            final_ranks = run.records[-1].client_ranks
            low = [r for r, c in zip(final_ranks, task.complexities) if c == 1]
            high = [r for r, c in zip(final_ranks, task.complexities) if c == 8]
            mean_low = float(np.mean(low))
            mean_high = float(np.mean(high))
            per_seed.append(f"seed {seed}: rho=1 mean rank {mean_low:.2f} "
                            f"vs rho=8 mean rank {mean_high:.2f}")
            ok = ok and low and high and mean_low < mean_high
        report(7, bool(ok), "; ".join(per_seed))


class TestCriterion8CommunicationAccounting:
    def test_exact_fractions_and_x_semantics(self, tmp_path, capsys):
        d, l = 64, 32
        # the count is an exact integer, so the fraction is correctly rounded
        exact = all(lora_params(r, d, l) == r * (d + l) for r in (1, 2, 8, 16))
        spot = lora_params(1, d, l) / (d * l) == 0.046875

        # a constructed non-converging run must render as 'X' in the report
        flat = RunResult(seed=0, strategy="hetlora", initial_eval_loss=0.08,
                         records=[
                             RoundRecord(round_index=t, eval_loss=0.08,
                                         client_ranks=(2,), down_params=10,
                                         up_params=10, cumulative_params=20 * t,
                                         wall_clock=0.0)
                             for t in range(1, 6)
                         ])
        assert rounds_to_target(flat, 0.04) is None
        path = tmp_path / "flat.jsonl"
        write_jsonl([flat], path)
        rc = main(["report", str(path), "--target", "0.04"])
        out = capsys.readouterr().out
        x_shown = rc == 0 and "X" in out

        ok = exact and spot and x_shown
        report(8, ok,
               f"r(d+l)/(d*l) exact for r in {{1,2,8,16}}: {exact}; "
               f"r=1 fraction == 0.046875: {spot}; unreachable target renders "
               f"'X': {x_shown}")


class TestCriterion9Determinism:
    def test_byte_identical_across_threads_and_repeats(self, tmp_path):
        cfg = dataclasses.replace(default_cfg(), rounds=40)
        paths = []
        for threads in (1, 3, 1):
            c = dataclasses.replace(cfg, threads=threads)
            rs = run_experiment(c)
            p = tmp_path / f"t{threads}_{len(paths)}.jsonl"
            write_jsonl(rs, p)
            paths.append(p)
        blobs = [p.read_bytes() for p in paths]
        ok = blobs[0] == blobs[1] == blobs[2]
        report(9, ok,
               "JSONL byte-identical across 1 thread, 3 threads, and a "
               "repeat run" if ok else "outputs differ across runs")
