"""Tests for config parsing, record serialization, orchestration, and CLI."""

import bisect
import csv
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora.cli import main
from hetlora.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
    with_overrides,
)
from hetlora.harness import (
    run_experiment,
    select_learning_rate,
    summarize,
    write_outputs,
)
from hetlora.records import (
    RoundRecord,
    RunResult,
    read_jsonl,
    rounds_to_target,
    to_jsonl_lines,
    write_jsonl,
    write_summary_csv,
)
from hetlora.server import AGGREGATION_STRATEGIES
from hetlora.tasks import SyntheticTaskSpec

ROOT = Path(__file__).resolve().parents[1]

TINY_TEXT = """
# comment line
task.d = 12
task.l = 8          # inline comment
task.true_rank = 4
task.num_clients = 10
task.samples_per_client = 16
task.noise_std = 0.1
task.eval_samples = 64

strategy = hetlora
r_min = 1
r_max = 4
rounds = 4
clients_per_round = 4
learning_rate = 0.2
seeds = 0, 1
"""


def tiny_cfg(**kwargs):
    cfg = parse_config_text(TINY_TEXT)
    return dataclasses.replace(cfg, **kwargs) if kwargs else cfg


class TestConfigParsing:
    def test_round_trip_values(self):
        cfg = tiny_cfg()
        assert cfg.task.d == 12 and cfg.task.l == 8
        assert cfg.task.noise_std == 0.1
        assert cfg.seeds == (0, 1)
        assert cfg.rounds == 4
        # unspecified keys keep their defaults
        assert cfg.batch_size == 8
        assert cfg.aggregation == "sparsity_weighted"

    def test_unknown_key_reports_line(self):
        text = TINY_TEXT + "\nmystery_knob = 3\n"
        with pytest.raises(ConfigError) as e:
            parse_config_text(text, source="exp.cfg")
        assert "exp.cfg:" in str(e.value) and "mystery_knob" in str(e.value)

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config_text("task.d = twelve", source="exp.cfg")
        assert "task.d" in str(e.value) and "exp.cfg:1" in str(e.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as e:
            parse_config_text("task.d 12")
        assert "key = value" in str(e.value)

    def test_missing_required_task_keys(self):
        with pytest.raises(ConfigError) as e:
            parse_config_text("task.d = 4\ntask.l = 4")
        assert "true_rank" in str(e.value)

    def test_complexity_forms(self):
        assert parse_config_text(
            TINY_TEXT + "task.client_complexity = uniform"
        ).task.client_complexity == "uniform"
        assert parse_config_text(
            TINY_TEXT + "task.client_complexity = 3"
        ).task.client_complexity == 3
        small = TINY_TEXT.replace("task.num_clients = 10",
                                  "task.num_clients = 3")
        small = small.replace("clients_per_round = 4", "clients_per_round = 2")
        assert parse_config_text(
            small + "task.client_complexity = 1,2,3"
        ).task.client_complexity == (1, 2, 3)

    def test_semantic_error_wrapped_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text(TINY_TEXT + "r_max = 99")

    def test_load_config_bundled_and_missing(self):
        cfg = load_config("default")
        assert cfg.task.d == 64 and cfg.rounds == 200
        with pytest.raises(ConfigError):
            load_config("no_such_config")

    def test_load_config_from_path(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(TINY_TEXT)
        assert load_config(str(p)).task.d == 12

    def test_with_overrides_routes_task_prefix(self):
        cfg = with_overrides(tiny_cfg(), task_noise_std=0.5, rounds=9)
        assert cfg.task.noise_std == 0.5
        assert cfg.rounds == 9

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            tiny_cfg(strategy="magic")
        with pytest.raises(ConfigError):
            tiny_cfg(r_min=5, r_max=3)
        with pytest.raises(ConfigError):
            tiny_cfg(clients_per_round=99)
        with pytest.raises(ConfigError):
            tiny_cfg(seeds=())
        with pytest.raises(ConfigError):
            tiny_cfg(threads=0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bad_field_values_name_the_field(self, data):
        name = data.draw(st.sampled_from(sorted(BAD_VALUES)), label="field")
        value = data.draw(BAD_VALUES[name], label="value")
        with pytest.raises(ConfigError) as e:
            tiny_cfg(**{name: value})
        assert name in str(e.value)

    @settings(max_examples=30, deadline=None)
    @given(decay=st.floats(0.0, 1.0, exclude_min=True),
           reg_weight=st.floats(0.0, 1e6),
           aggregation=st.sampled_from(AGGREGATION_STRATEGIES),
           batch_size=st.integers(1, 64), local_iters=st.integers(1, 64),
           learning_rate=st.floats(0.0, 1e6, exclude_min=True),
           init_std=st.floats(0.0, 1e6, exclude_min=True),
           rank_alpha=st.floats(-1e6, 1e6))
    def test_good_field_values_accepted(self, **values):
        assert tiny_cfg(**values).decay == values["decay"]


_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# values each field must refuse before any round runs
BAD_VALUES = {
    "decay": st.one_of(st.floats(max_value=0.0),
                       st.floats(min_value=1.0, exclude_min=True), _NON_FINITE),
    "reg_weight": st.one_of(st.floats(max_value=0.0, exclude_max=True), _NON_FINITE),
    "aggregation": st.text().filter(lambda s: s not in AGGREGATION_STRATEGIES),
    "batch_size": st.integers(max_value=0),
    "local_iters": st.integers(max_value=0),
    "learning_rate": st.one_of(st.floats(max_value=0.0), _NON_FINITE),
    "init_std": st.one_of(st.floats(max_value=0.0), _NON_FINITE),
    "rank_alpha": _NON_FINITE,
}


def fake_run(seed=0, losses=(0.08, 0.05, 0.02), strategy="hetlora"):
    records = [
        RoundRecord(round_index=t, eval_loss=v, client_ranks=(2, 3),
                    down_params=100, up_params=90,
                    cumulative_params=190 * t, wall_clock=0.01)
        for t, v in enumerate(losses, start=1)
    ]
    return RunResult(seed=seed, strategy=strategy, initial_eval_loss=0.1,
                     records=records)


class TestRecords:
    def test_jsonl_round_trip(self, tmp_path):
        runs = [fake_run(0), fake_run(1, losses=(0.07, 0.06))]
        path = tmp_path / "r.jsonl"
        write_jsonl(runs, path)
        back = read_jsonl(path)
        assert [r.seed for r in back] == [0, 1]
        assert back[0].records[2].eval_loss == 0.02
        assert back[1].final_eval_loss == 0.06
        assert to_jsonl_lines(back[0]) == to_jsonl_lines(runs[0])

    def test_wall_clock_not_serialized(self):
        lines = to_jsonl_lines(fake_run())
        assert all("wall" not in line for line in lines)

    def test_schema_fields_present(self):
        header = json.loads(to_jsonl_lines(fake_run())[0])
        assert header["type"] == "header" and header["v"] == 1
        round_obj = json.loads(to_jsonl_lines(fake_run())[1])
        for key in ("round", "eval_loss", "client_ranks", "down_params",
                    "up_params", "cumulative_params"):
            assert key in round_obj

    def test_read_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(ValueError) as e:
            read_jsonl(bad)
        assert "bad.jsonl:1" in str(e.value)

        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text(json.dumps({"type": "round", "seed": 0}) + "\n")
        with pytest.raises(ValueError) as e:
            read_jsonl(orphan)
        assert "without header" in str(e.value)

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError) as e:
            read_jsonl(empty)
        assert "no runs found" in str(e.value)

    def _edited_stream(self, tmp_path, edit):
        lines = [json.loads(line) for line in to_jsonl_lines(fake_run())]
        edit(lines)
        path = tmp_path / "edited.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        return path

    def test_read_rejects_unknown_version(self, tmp_path):
        path = self._edited_stream(tmp_path, lambda lines: lines[2].update(v=2))
        with pytest.raises(ValueError) as e:
            read_jsonl(path)
        assert "edited.jsonl:3" in str(e.value) and "version" in str(e.value)

    def test_read_rejects_rounds_out_of_order(self, tmp_path):
        def swap(lines):
            lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(ValueError) as e:
            read_jsonl(self._edited_stream(tmp_path, swap))
        assert "edited.jsonl:2" in str(e.value) and "round 2" in str(e.value)

    def test_read_rejects_missing_round(self, tmp_path):
        with pytest.raises(ValueError) as e:
            read_jsonl(self._edited_stream(tmp_path, lambda lines: lines.pop(2)))
        assert "edited.jsonl:3" in str(e.value) and "round 3" in str(e.value)

    def test_write_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            write_jsonl([fake_run(losses=(0.05, float("inf")))], tmp_path / "x.jsonl")

    def test_rounds_to_target(self):
        run = fake_run(losses=(0.08, 0.05, 0.02))
        assert rounds_to_target(run, 0.2) == 0  # already below at init
        assert rounds_to_target(run, 0.05) == 2
        assert rounds_to_target(run, 0.001) is None

    def test_rounds_to_target_matches_bisect_on_monotone_curve(self):
        losses = tuple(0.1 * 0.9**t for t in range(1, 40))
        run = fake_run(losses=losses)
        curve = run.eval_curve()
        for target in (0.09, 0.05, 0.02, 0.005):
            # independent oracle: first index at or below target on a
            # strictly decreasing curve via bisect on the reversed curve
            descending = [-v for v in curve]
            want = bisect.bisect_left(descending, -target)
            assert rounds_to_target(run, target) == want

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        write_summary_csv([fake_run(0), fake_run(1)], path, label="demo")
        rows = list(csv.reader(path.open()))
        assert rows[0][0] == "label"
        assert len(rows) == 4  # header + 2 seeds + mean/std
        assert rows[-1][2] == "mean±std"


class TestHarness:
    def test_seed_order_preserved_across_threads(self):
        cfg = tiny_cfg(seeds=(0, 1, 2), rounds=3)
        serial = run_experiment(dataclasses.replace(cfg, threads=1))
        threaded = run_experiment(dataclasses.replace(cfg, threads=3))
        assert [r.seed for r in serial] == [0, 1, 2]
        for a, b in zip(serial, threaded):
            assert to_jsonl_lines(a) == to_jsonl_lines(b)

    def test_summarize_fields(self):
        s = summarize([fake_run(0), fake_run(1, losses=(0.07, 0.04))])
        assert s["strategy"] == "hetlora"
        assert s["seeds"] == [0, 1]
        assert abs(s["final_eval_loss_mean"] - 0.03) < 1e-12
        assert s["completed"]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_select_learning_rate_skips_divergent(self):
        cfg = tiny_cfg(seeds=(0,), rounds=3)
        best, results = select_learning_rate(cfg, grid=(0.2, 1e8))
        assert best == 0.2
        assert results[1e8] == float("inf")
        # the recorded score for the surviving rate matches a direct run
        direct = run_experiment(dataclasses.replace(cfg, learning_rate=0.2))
        assert results[0.2] == direct[0].final_eval_loss

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_select_learning_rate_all_divergent(self):
        cfg = tiny_cfg(seeds=(0,), rounds=3)
        with pytest.raises(RuntimeError):
            select_learning_rate(cfg, grid=(1e8, 1e9))

    def test_write_outputs_paths(self, tmp_path):
        jsonl, csv_path = write_outputs([fake_run()], tmp_path, name="exp")
        assert jsonl == tmp_path / "exp.jsonl"
        assert csv_path == tmp_path / "exp_summary.csv"
        assert jsonl.exists() and csv_path.exists()


@pytest.fixture
def lr50_cfg(tmp_path):
    """The smoke config at a learning rate every strategy diverges at."""
    text = (ROOT / "configs" / "smoke.cfg").read_text()
    p = tmp_path / "lr50.cfg"
    p.write_text(text.replace("learning_rate = 0.3", "learning_rate = 50"))
    assert "learning_rate = 50" in p.read_text()
    return p


def assert_strict_json(path):
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(TINY_TEXT + f"\nout_dir = {tmp_path / 'results'}\n")
    return p


class TestCli:
    def test_run_writes_outputs(self, cfg_file, tmp_path, capsys):
        rc = main(["run", "--config", str(cfg_file)])
        assert rc == 0
        out = tmp_path / "results"
        assert (out / "records.jsonl").exists()
        assert (out / "records_summary.csv").exists()
        captured = capsys.readouterr().out
        assert "final eval loss" in captured

    def test_run_flag_overrides(self, cfg_file, tmp_path):
        out = tmp_path / "elsewhere"
        rc = main(["run", "--config", str(cfg_file), "--seed", "7",
                   "--out", str(out), "--strategy", "full_ft",
                   "--threads", "2", "--name", "ft"])
        assert rc == 0
        runs = read_jsonl(out / "ft.jsonl")
        assert [r.seed for r in runs] == [7]
        assert runs[0].strategy == "full_ft"

    def test_env_var_default_out_dir(self, cfg_file, tmp_path, monkeypatch):
        env_out = tmp_path / "env_results"
        monkeypatch.setenv("HETLORA_OUT_DIR", str(env_out))
        # config text without out_dir so the env default applies
        bare = tmp_path / "bare.cfg"
        bare.write_text(TINY_TEXT)
        rc = main(["run", "--config", str(bare), "--seed", "0"])
        assert rc == 0
        assert (env_out / "records.jsonl").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("task.d = twelve\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self):
        assert main(["run", "--config", "no_such_config_anywhere"]) == 2

    def test_bad_field_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_TEXT + "decay = 1.5\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "decay" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverged_run_exits_1_with_readable_stream(self, lr50_cfg, tmp_path):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(lr50_cfg), "--strategy", "hetlora",
                   "--out", str(out)])
        assert rc == 1
        runs = read_jsonl(out / "records.jsonl")
        assert [r.completed for r in runs] == [False, False]
        assert all(r.failure.startswith("round ") for r in runs)
        assert_strict_json(out / "records.jsonl")

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverged_sweep_exits_1_with_summary(self, lr50_cfg, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(lr50_cfg), "--strategies", "full_ft",
                   "--out", str(out)])
        assert rc == 1
        runs = read_jsonl(out / "full_ft" / "records.jsonl")
        assert not any(r.completed for r in runs)
        assert_strict_json(out / "full_ft" / "records.jsonl")
        rows = list(csv.reader((out / "full_ft" / "records_summary.csv").open()))
        assert rows[-1][2] == "mean±std"

    def test_sweep_strategies_and_summary(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfg_file), "--out", str(out),
                   "--seed", "0", "--strategies", "hetlora,homlora:2"])
        assert rc == 0
        rows = list(csv.reader((out / "sweep_summary.csv").open()))
        assert [r[0] for r in rows[1:]] == ["hetlora", "homlora_r2"]
        assert (out / "homlora_r2" / "records.jsonl").exists()

    def test_sweep_gamma_ablation_variants(self, cfg_file, tmp_path):
        out = tmp_path / "gamma"
        rc = main(["sweep", "--config", str(cfg_file), "--out", str(out),
                   "--seed", "0", "--gamma-ablation"])
        assert rc == 0
        rows = list(csv.reader((out / "sweep_summary.csv").open()))
        assert [r[0] for r in rows[1:]] == [
            "gamma_1", "gamma_0.99", "gamma_0.95", "gamma_0.85",
        ]

    def test_sweep_without_variants(self, cfg_file, capsys):
        assert main(["sweep", "--config", str(cfg_file)]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_report_table_and_target_miss(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_file), "--seed", "0,1"]) == 0
        capsys.readouterr()
        # an unreachable absolute target renders as X
        rc = main(["report", str(out / "records.jsonl"), "--target", "-1"])
        assert rc == 0
        table = capsys.readouterr().out
        assert "X/X" in table
        # a trivially met target is round 0
        rc = main(["report", str(out), "--target", "1e9"])
        assert rc == 0
        assert "0/0" in capsys.readouterr().out

    def test_report_csv_output(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_file), "--seed", "0"]) == 0
        report_csv = tmp_path / "report.csv"
        rc = main(["report", str(out), "--csv", str(report_csv)])
        assert rc == 0
        rows = list(csv.reader(report_csv.open()))
        assert rows[0][0] == "label"
        assert len(rows) == 2

    def test_report_missing_path(self, capsys):
        assert main(["report", "/nonexistent/path.jsonl"]) == 2
