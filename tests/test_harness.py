"""Tests for config parsing, record serialization, orchestration, and CLI."""

import bisect
import csv
import dataclasses
import json
import re
import shlex
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora import baselines, harness
from hetlora.cli import build_parser, main
from hetlora.config import (
    LEARNING_RATE_GRID,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from hetlora.harness import (
    run_experiment,
    select_learning_rate,
    write_outputs,
)
from hetlora.records import (
    RoundRecord,
    RunResult,
    read_jsonl,
    rounds_to_target,
    summarize,
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


def set_key(text: str, key: str, value) -> str:
    """`text` with the line of `key` set to `value`, appended if absent."""
    line = f"{key} = {value}"
    new, n = re.subn(rf"^{re.escape(key)} =.*$", lambda _: line, text, flags=re.M)
    return new if n else f"{text}{line}\n"


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
        with pytest.raises(ConfigError, match="rank range"):
            parse_config_text(set_key(TINY_TEXT, "r_max", 99))

    def test_key_given_twice_names_both_lines(self):
        text = "task.d = 12\n# note\ntask.d = 16\n"
        with pytest.raises(ConfigError) as e:
            parse_config_text(text, source="exp.cfg")
        assert "exp.cfg:3" in str(e.value) and "'task.d'" in str(e.value)
        assert "lines 1 and 3" in str(e.value)

    @pytest.mark.parametrize("seeds", [(0, 0), (3, 1, 3)])
    def test_seed_listed_twice(self, seeds):
        with pytest.raises(ConfigError, match=f"seed {seeds[0]} is listed twice"):
            tiny_cfg(seeds=seeds)
        with pytest.raises(ConfigError, match=f"seed {seeds[0]} is listed twice"):
            parse_config_text(set_key(TINY_TEXT, "seeds",
                                      ", ".join(map(str, seeds))))

    def test_load_config_bundled_and_missing(self):
        cfg = load_config("default")
        assert cfg.task.d == 64 and cfg.rounds == 200
        with pytest.raises(ConfigError):
            load_config("no_such_config")

    def test_load_config_from_path(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(TINY_TEXT)
        assert load_config(str(p)).task.d == 12

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
            if name.startswith("task."):
                parse_config_text(set_key(TINY_TEXT, name, repr(value)))
            else:
                tiny_cfg(**{name: value})
        assert name.removeprefix("task.") in str(e.value)

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
    "task.target_norm": st.one_of(st.floats(max_value=0.0), _NON_FINITE),
    "task.noise_std": st.one_of(st.floats(max_value=0.0, exclude_max=True),
                                _NON_FINITE),
    "task.samples_per_client": st.integers(max_value=0),
    "seeds": st.integers(max_value=-1).map(lambda seed: (0, seed)),
}


def fake_run(seed=0, losses=(0.08, 0.05, 0.02), strategy="hetlora", down=100):
    records = [
        RoundRecord(round_index=t, eval_loss=v, client_ranks=(2, 3),
                    down_params=down, up_params=90,
                    cumulative_params=(down + 90) * t, wall_clock=0.01)
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

    def test_incomplete_run_round_trips(self, tmp_path):
        failed = dataclasses.replace(fake_run(0, losses=(0.08,)), completed=False,
                                     failure="round 2: client 3 diverged")
        path = tmp_path / "r.jsonl"
        write_jsonl([failed, fake_run(1)], path)
        back = read_jsonl(path)
        assert [(r.completed, r.failure) for r in back] == [
            (False, "round 2: client 3 diverged"), (True, None)]
        assert back[0].records == [dataclasses.replace(r, wall_clock=0.0)
                                   for r in failed.records]
        assert "".join(f"{line}\n" for r in back
                       for line in to_jsonl_lines(r)) == path.read_text()

    def test_header_without_optional_fields_reads_as_completed(self, tmp_path):
        def drop(lines):
            del lines[0]["completed"], lines[0]["failure"]
        run, = read_jsonl(self._edited_stream(tmp_path, drop))
        assert run.completed is True and run.failure is None
        assert len(run.records) == 3

    def test_schema_doc_lists_the_written_keys(self):
        doc = (ROOT / "docs" / "record_schema.md").read_text()
        header, round_obj = map(json.loads, to_jsonl_lines(fake_run())[:2])
        for obj in (header, round_obj):
            section = doc.split(f"### `{obj['type']}` object", 1)[1].split("\n#", 1)[0]
            keys = re.findall(r"^\| `(\w+)`", section, flags=re.M)
            assert sorted(keys) == sorted(obj), obj["type"]

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

    def test_read_rejects_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text(to_jsonl_lines(fake_run())[0] + "\n[1, 2]\n")
        with pytest.raises(ValueError) as e:
            read_jsonl(path)
        assert "list.jsonl:2" in str(e.value) and "not a JSON object" in str(e.value)

    def test_read_rejects_header_missing_a_field(self, tmp_path):
        path = self._edited_stream(tmp_path, lambda lines: lines[0].pop("strategy"))
        with pytest.raises(ValueError) as e:
            read_jsonl(path)
        assert "edited.jsonl:1" in str(e.value) and "'strategy'" in str(e.value)

    def test_read_rejects_round_missing_a_field(self, tmp_path):
        path = self._edited_stream(tmp_path, lambda lines: lines[2].pop("client_ranks"))
        with pytest.raises(ValueError) as e:
            read_jsonl(path)
        assert "edited.jsonl:3" in str(e.value) and "'client_ranks'" in str(e.value)

    # a round's "client_ranks": 5 and "eval_loss": "x" are in
    # TestCli::test_report_rejected_stream_exit_code
    @pytest.mark.parametrize("line,field,value", [
        (0, "seed", "0"), (0, "initial_eval_loss", None), (0, "completed", 1),
        (0, "failure", 3), (1, "client_ranks", [2, 3.5]), (2, "round", True),
        (2, "up_params", 9.0),
    ])
    def test_read_rejects_field_of_wrong_type(self, tmp_path, line, field, value):
        path = self._edited_stream(tmp_path,
                                   lambda lines: lines[line].update({field: value}))
        with pytest.raises(ValueError) as e:
            read_jsonl(path)
        assert f"edited.jsonl:{line + 1}" in str(e.value)
        assert repr(field) in str(e.value)

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
    def test_seeds_run_in_callers_thread_in_seed_order(self, monkeypatch):
        calls = []

        def record_call(cfg, seed):
            calls.append((seed, threading.get_ident()))
            return fake_run(seed)

        monkeypatch.setattr(harness, "run_strategy", record_call)
        runs = run_experiment(tiny_cfg(seeds=(2, 0, 1), threads=3))
        me = threading.get_ident()
        assert calls == [(2, me), (0, me), (1, me)]
        assert [r.seed for r in runs] == [2, 0, 1]

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

    def test_select_learning_rate_skips_divergent(self):
        cfg = tiny_cfg(seeds=(0, 1), rounds=3)
        best, runs = select_learning_rate(cfg, grid=(1e8, 0.2, 0.05))
        assert best == 0.2
        # the winning rate's runs are those of a direct run at that rate
        direct = run_experiment(dataclasses.replace(cfg, learning_rate=0.2))
        assert [to_jsonl_lines(r) for r in runs] == [to_jsonl_lines(r) for r in direct]

    def test_select_learning_rate_all_divergent(self):
        cfg = tiny_cfg(seeds=(0,), rounds=3)
        best, runs = select_learning_rate(cfg, grid=(1e8, 1e9))
        assert best == 1e8
        assert [r.completed for r in runs] == [False]

    @pytest.mark.parametrize("strategy", ["full_ft", "hetlora"])
    def test_divergence_warns_nothing(self, lr50_cfg, strategy):
        cfg = dataclasses.replace(load_config(str(lr50_cfg)), strategy=strategy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = run_experiment(cfg)
        assert not any(r.completed for r in runs)
        assert all(r.failure.startswith("round ") for r in runs)

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

    def test_run_labels_by_strategy_tag(self, cfg_file, tmp_path, capsys):
        assert main(["run", "--config", str(cfg_file), "--strategy", "homlora"]) == 0
        assert capsys.readouterr().out.startswith("homlora_r8 ")
        rows = csv.DictReader((tmp_path / "results" / "records_summary.csv").open())
        assert {(r["label"], r["strategy"]) for r in rows} == {("homlora_r8",
                                                                "homlora_r8")}

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
        # each is rejected when the config is parsed, naming the field
        for line, field in (("decay = 1.5", "decay"),
                            ("task.client_complexity = 9", "client_complexity"),
                            ("task.client_complexity = 1,2", "client_complexity")):
            bad = tmp_path / "bad.cfg"
            bad.write_text(TINY_TEXT + line + "\n")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert field in err and "seed" not in err
        assert not (tmp_path / "records.jsonl").exists()

    def test_diverged_run_exits_1_with_readable_stream(self, lr50_cfg, tmp_path):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(lr50_cfg), "--strategy", "hetlora",
                   "--out", str(out)])
        assert rc == 1
        runs = read_jsonl(out / "records.jsonl")
        assert [r.completed for r in runs] == [False, False]
        assert all(r.failure.startswith("round ") for r in runs)
        assert_strict_json(out / "records.jsonl")

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

    @pytest.mark.parametrize("key,value", [("target_norm", "inf"),
                                           ("noise_std", "nan")])
    def test_non_finite_task_value_exit_code(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(set_key(TINY_TEXT, f"task.{key}", value))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize("key,value", [("target_norm", "1e300"),
                                           ("noise_std", "1e308")])
    def test_overflowing_task_exits_2_before_round_1(self, tmp_path, capsys,
                                                    monkeypatch, key, value):
        # 1e300 overflows the initial eval loss, 1e308 the clients' targets
        text = (ROOT / "configs" / "smoke.cfg").read_text()
        bad = tmp_path / "overflow.cfg"
        bad.write_text(re.sub(rf"^task\.{key} = .*$", f"task.{key} = {value}", text,
                              flags=re.M))
        assert f"task.{key} = {value}\n" in bad.read_text()
        monkeypatch.setattr(baselines, "select_clients", None)  # round 1 would raise
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "task.target_norm" in err and "task.noise_std" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["run", "--seed", "0,a"], "--seed"),
        (["run", "--seed", ""], "--seed"),
        (["sweep", "--strategies", "hetlora:2"], "--strategies"),
        (["sweep", "--strategies", "homlora:x"], "--strategies"),
    ])
    def test_malformed_list_flag_exit_code(self, cfg_file, tmp_path, capsys, argv,
                                           flag):
        out = tmp_path / "out"
        argv = argv[:1] + ["--config", str(cfg_file), "--out", str(out)] + argv[1:]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_strategies_and_summary(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfg_file), "--out", str(out),
                   "--seed", "0", "--strategies", "hetlora,homlora:02"])
        assert rc == 0
        rows = list(csv.reader((out / "sweep_summary.csv").open()))
        assert [r[0] for r in rows[1:]] == ["hetlora", "homlora_r2"]
        # a variant is labelled by the strategy tag its stream carries
        for label in ("hetlora", "homlora_r2"):
            runs = read_jsonl(out / label / "records.jsonl")
            assert [r.strategy for r in runs] == [label]

    @pytest.mark.parametrize("tags,label", [("hetlora,hetlora", "hetlora"),
                                            ("homlora:2,homlora:02", "homlora_r2"),
                                            ("homlora:8,homlora", "homlora_r8")])
    def test_sweep_label_given_twice_exits_2(self, cfg_file, tmp_path, capsys, tags,
                                             label):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfg_file), "--out", str(out),
                   "--strategies", tags])
        assert rc == 2
        assert f"{label} is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_has_no_ranks_flag(self, cfg_file, capsys):
        # homogeneous ranks are --strategies homlora:R tags
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--config", str(cfg_file), "--ranks", "2"])
        assert e.value.code == 2 and "--ranks" in capsys.readouterr().err

    def test_sweep_lr_grid_writes_the_winning_runs(self, cfg_file, tmp_path,
                                                   monkeypatch):
        rates = []

        def counted(cfg, seed, task=None):
            rates.append(cfg.learning_rate)
            return baselines.run_strategy(cfg, seed, task)

        monkeypatch.setattr(harness, "run_strategy", counted)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                     "--strategies", "full_ft", "--lr-grid"]) == 0
        # each grid rate trains once per seed, and the winner is not trained again
        assert rates == [lr for lr in LEARNING_RATE_GRID for _ in (0, 1)]
        row, = csv.DictReader((out / "sweep_summary.csv").open())
        best = dataclasses.replace(load_config(str(cfg_file)), strategy="full_ft",
                                   learning_rate=float(row["learning_rate"]))
        write_jsonl(run_experiment(best), tmp_path / "direct.jsonl")
        assert ((out / "full_ft" / "records.jsonl").read_bytes()
                == (tmp_path / "direct.jsonl").read_bytes())

    def test_sweep_grid_diverging_everywhere_exits_1(self, tmp_path, capsys):
        # at this target norm hetlora diverges at every grid rate
        text = (ROOT / "configs" / "smoke.cfg").read_text()
        big = tmp_path / "big.cfg"
        big.write_text(set_key(text, "task.target_norm", "1e150"))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(big), "--seed", "0", "--out", str(out),
                   "--strategies", "hetlora,full_ft", "--lr-grid"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("hetlora: seed 0 diverged")
        assert (out / "full_ft" / "records.jsonl").exists()
        rows = list(csv.reader((out / "sweep_summary.csv").open()))
        assert [r[0] for r in rows[1:]] == ["hetlora", "full_ft"]

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

    def test_readme_quick_start_parses(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("## Quick start", 1)[1].split("```bash", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line) for line in block.splitlines()
                    if line.startswith("hetlora-sim ")]
        assert len(commands) >= 6
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README Quick start: {shlex.join(argv)} does not parse")

    def test_report_table_and_target_miss(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_file), "--seed", "0,1"]) == 0
        capsys.readouterr()
        # an unreachable absolute target renders as X
        rc = main(["report", str(out / "records.jsonl"), "--target", "1e-12"])
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

    def test_report_two_full_ft_streams_print_absolute_comm(self, tmp_path, capsys):
        # with two full_ft baselines no ratio is well defined; the table must
        # not silently divide by whichever stream was read last
        for label, strategy, down in (("ft_a", "full_ft", 100),
                                      ("ft_b", "full_ft", 290),
                                      ("het", "hetlora", 100)):
            write_jsonl([fake_run(strategy=strategy, down=down)],
                        tmp_path / label / "records.jsonl")
        report_csv = tmp_path / "report.csv"
        assert main(["report", str(tmp_path), "--csv", str(report_csv)]) == 0
        table = capsys.readouterr().out.splitlines()[1:-1]
        assert [line.split()[0] for line in table] == ["ft_a", "ft_b", "het"]
        assert all(line.rstrip().endswith(" params") for line in table)
        rows = list(csv.reader(report_csv.open()))[1:]
        # target 0.05 is met at round 2: 2 * (down + 90) params
        assert [float(r[5]) for r in rows] == [380.0, 760.0, 380.0]

    def test_report_rejected_stream_exit_code(self, tmp_path, capsys):
        for n, (edit, why) in enumerate([({"v": 99}, "version"),
                                         ({"client_ranks": 5}, "'client_ranks'"),
                                         ({"eval_loss": "x"}, "'eval_loss'")]):
            lines = [json.loads(line) for line in to_jsonl_lines(fake_run())]
            lines[2].update(edit)
            path = tmp_path / f"bad{n}" / "records.jsonl"
            path.parent.mkdir()
            path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
            assert main(["report", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"{path}:3" in err and why in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--target", "nan"), ("--target", "0"), ("--target", "-1"),
        ("--target", "inf"), ("--target-fraction", "nan"), ("--target-fraction", "0"),
        ("--target-fraction", "inf"), ("--target-fraction", "-0.5"),
    ])
    def test_report_refuses_a_target_not_finite_and_positive(self, tmp_path, capsys,
                                                            flag, value):
        path = tmp_path / "records.jsonl"
        write_jsonl([fake_run()], path)
        with pytest.raises(SystemExit) as e:
            main(["report", str(path), flag, value])
        assert e.value.code == 2 and f"argument {flag}: " in capsys.readouterr().err

    def test_report_missing_path(self, capsys):
        assert main(["report", "/nonexistent/path.jsonl"]) == 2
