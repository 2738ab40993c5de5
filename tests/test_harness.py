"""Tests for config parsing, record serialization, orchestration, and CLI."""

import argparse
import bisect
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlora import baselines, cli, config, harness
from hetlora.cli import build_parser, main
from hetlora.config import (
    LEARNING_RATE_GRID,
    STRATEGY_TAGS,
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


def csv_rows(path, reader=csv.reader):
    """The rows of a CSV file, read with the file closed afterwards."""
    with open(path, newline="") as f:
        return list(reader(f))


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

    def test_file_keys_in_order(self):
        # the key set is a file format: renaming a config field changes it
        assert list(config._SCHEMA) == [
            "task.d", "task.l", "task.true_rank", "task.num_clients",
            "task.samples_per_client", "task.noise_std", "task.client_complexity",
            "task.eval_samples", "task.target_norm", "task.target_spectrum_decay",
            "strategy", "homlora_rank", "r_min", "r_max", "rank_alpha", "aggregation",
            "reg_weight", "decay", "local_iters", "batch_size", "learning_rate",
            "clients_per_round", "rounds", "seeds", "threads", "init_std", "out_dir",
        ]

    def test_every_key_parses_to_its_field(self):
        text = """
            task.d = 12
            task.l = 8
            task.true_rank = 4
            task.num_clients = 3
            task.samples_per_client = 16
            task.noise_std = 0.5
            task.client_complexity = 1, 2, 3
            task.eval_samples = 64
            task.target_norm = 2
            task.target_spectrum_decay = 0.25
            strategy = homlora
            homlora_rank = 3
            r_min = 1
            r_max = 4
            rank_alpha = -0.5
            aggregation = simple
            reg_weight = 0.125
            decay = 0.75
            local_iters = 7
            batch_size = 5
            learning_rate = 0.0625
            clients_per_round = 2
            rounds = 9
            seeds = 4, 2
            threads = 3
            init_std = 0.03125
            out_dir = some/where
        """
        cfg = parse_config_text(text)
        assert cfg == ExperimentConfig(
            task=SyntheticTaskSpec(d=12, l=8, true_rank=4, num_clients=3,
                                   samples_per_client=16, noise_std=0.5,
                                   client_complexity=(1, 2, 3), eval_samples=64,
                                   target_norm=2.0, target_spectrum_decay=0.25),
            strategy="homlora", homlora_rank=3, r_min=1, r_max=4, rank_alpha=-0.5,
            aggregation="simple", reg_weight=0.125, decay=0.75, local_iters=7,
            batch_size=5, learning_rate=0.0625, clients_per_round=2, rounds=9,
            seeds=(4, 2), threads=3, init_std=0.03125, out_dir="some/where")
        assert type(cfg.task.target_norm) is float and type(cfg.rank_alpha) is float

    def test_task_seed_is_not_a_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config_text(TINY_TEXT + "task.seed = 1\n", source="exp.cfg")
        lineno = len(TINY_TEXT.splitlines()) + 1
        assert str(e.value) == f"exp.cfg:{lineno}: unknown key 'task.seed'"

    def test_missing_required_task_keys(self):
        with pytest.raises(ConfigError) as e:
            parse_config_text("task.d = 4\ntask.l = 4")
        assert str(e.value) == ("<config>: missing required task keys: "
                                "['true_rank', 'num_clients']")

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

    def test_each_strategy_checks_only_the_ranks_it_reads(self):
        # on a 3 x 2 task r_max 16, homlora_rank 8 and a rank_alpha whose
        # weights overflow are out of range; only a strategy that reads a
        # setting refuses it
        small = dataclasses.replace(tiny_cfg().task, d=3, l=2, true_rank=1,
                                    client_complexity=1)

        def cfg(strategy, **ranks):
            bad = dict(r_min=1, r_max=16, homlora_rank=8, rank_alpha=1e6)
            return tiny_cfg(task=small, strategy=strategy, **{**bad, **ranks})

        assert cfg("full_ft").r_max == 16
        assert cfg("homlora", homlora_rank=2).rank_alpha == 1e6
        for strategy in ("hetlora", "recon_svd"):
            assert cfg(strategy, r_max=2, rank_alpha=0.5).homlora_rank == 8
            with pytest.raises(ConfigError, match="r_max"):
                cfg(strategy, rank_alpha=0.5)
            with pytest.raises(ConfigError, match="rank_alpha"):
                cfg(strategy, r_max=2)
        with pytest.raises(ConfigError, match="homlora_rank"):
            cfg("homlora")

    def test_every_field_has_bad_values(self):
        assert set(BAD_VALUES) == set(config._SCHEMA)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bad_field_values_name_the_field(self, data):
        name = data.draw(st.sampled_from(sorted(BAD_VALUES)), label="field")
        value = data.draw(BAD_VALUES[name], label="value")
        with pytest.raises(ConfigError) as e:
            if name.startswith("task."):
                parse_config_text(set_key(TINY_TEXT, name, repr(value)))
            elif name == "homlora_rank":  # only homlora reads it
                tiny_cfg(strategy="homlora", homlora_rank=value)
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
           rank_alpha=st.floats(-1e6, 500.0))
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
    # r^(rank_alpha - 1) on TINY_TEXT's ranks [1, 4] overflows
    "rank_alpha": st.one_of(_NON_FINITE, st.floats(min_value=520.0)),
    # TINY_TEXT's adapters are at most min(d, l) = 8 wide
    "homlora_rank": st.one_of(st.integers(max_value=0), st.integers(min_value=9)),
    "rounds": st.integers(max_value=-1),
    "task.target_norm": st.one_of(st.floats(max_value=0.0), _NON_FINITE),
    "task.noise_std": st.one_of(st.floats(max_value=0.0, exclude_max=True),
                                _NON_FINITE),
    "task.samples_per_client": st.integers(max_value=0),
    "task.d": st.integers(max_value=0),
    "task.l": st.integers(max_value=0),
    "task.num_clients": st.integers(max_value=0),
    # TINY_TEXT's ranks need 1 <= r_min <= r_max = 4 and r_max <= min(d, l) = 8
    "r_min": st.one_of(st.integers(max_value=0), st.integers(min_value=5)),
    "r_max": st.one_of(st.integers(max_value=0), st.integers(min_value=9)),
    "seeds": st.one_of(st.integers(max_value=-1),
                       st.integers(min_value=2**32)).map(lambda seed: (0, seed)),
    "out_dir": st.just(""),
    "strategy": st.text().filter(lambda s: s not in STRATEGY_TAGS),
    # TINY_TEXT has 10 clients
    "clients_per_round": st.one_of(st.integers(max_value=0), st.integers(min_value=11)),
    "threads": st.integers(max_value=0),
    # TINY_TEXT's task is 12 x 8
    "task.true_rank": st.one_of(st.integers(max_value=0), st.integers(min_value=9)),
    # TINY_TEXT's true_rank is 4
    "task.client_complexity": st.one_of(st.integers(max_value=0),
                                        st.integers(min_value=5)),
    "task.eval_samples": st.integers(max_value=0),
    "task.target_spectrum_decay": st.one_of(
        st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True), _NON_FINITE),
}

# values that a separate local-training config, assign_ranks or ServerState
# once refused again, and the task dimensions; the config is now their one
# refusal
ONE_REFUSAL = [
    ("local_iters", 0, "local_iters must be >= 1"),
    ("decay", 0, "decay 0.0 must be in (0, 1]"),
    ("reg_weight", -1, "reg_weight -1.0 must be finite and >= 0"),
    ("aggregation", "geometric", "unknown aggregation 'geometric'"),
    ("r_min", 0, "r_min 0, r_max 4 invalid"),
    ("r_min", 5, "r_min 5, r_max 4 invalid"),
    ("r_max", 9, "r_min 1, r_max 9 invalid"),
    ("task.num_clients", 0, "num_clients 0: need at least one client"),
    ("task.d", 0, "d 0 must be >= 1"),
    ("task.l", 0, "l 0 must be >= 1"),
]


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

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n".join(["", *to_jsonl_lines(fake_run()), "  ", ""]))
        assert read_jsonl(path)[0].final_eval_loss == 0.02

    def test_read_rejects_unknown_record_type(self, tmp_path):
        path = self._edited_stream(tmp_path, lambda lines: lines[1].update(type="eval"))
        with pytest.raises(ValueError, match="edited.jsonl:2: unknown record type"):
            read_jsonl(path)

    def test_read_rejects_round_of_another_seed(self, tmp_path):
        path = self._edited_stream(tmp_path, lambda lines: lines[2].update(seed=1))
        with pytest.raises(ValueError, match="edited.jsonl:3: round record without"):
            read_jsonl(path)

    def test_read_rejects_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin.jsonl"
        path.write_bytes(to_jsonl_lines(fake_run())[0].encode() + b'\n{"\xff": 1}\n')
        with pytest.raises(ValueError, match="latin.jsonl:2: not UTF-8"):
            read_jsonl(path)

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
        (0, "failure", 3), (1, "client_ranks", [2, 3.5]), (1, "client_ranks", [2, True]),
        (2, "round", True),
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

    # json reads these, but a stream never holds them
    @pytest.mark.parametrize("line,field,text", [
        (0, "initial_eval_loss", "NaN"), (1, "eval_loss", "Infinity"),
        (2, "eval_loss", "-Infinity"), (3, "eval_loss", "1e999"),
    ])
    def test_read_rejects_non_finite_float(self, tmp_path, line, field, text):
        path = self._edited_stream(tmp_path,
                                   lambda lines: lines[line].update({field: 0.5}))
        lines = path.read_text().splitlines()
        lines[line] = lines[line].replace(f'"{field}": 0.5', f'"{field}": {text}')
        path.write_text("".join(f"{x}\n" for x in lines))
        with pytest.raises(ValueError) as e:
            read_jsonl(path)
        assert f"edited.jsonl:{line + 1}" in str(e.value)
        assert repr(field) in str(e.value) and "not finite" in str(e.value)

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
        rows = csv_rows(path)
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
        jsonl, csv_path = write_outputs([fake_run()], tmp_path)
        assert jsonl == tmp_path / "records.jsonl"
        assert csv_path == tmp_path / "records_summary.csv"
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
        rows = csv_rows(tmp_path / "results" / "records_summary.csv", csv.DictReader)
        assert {(r["label"], r["strategy"]) for r in rows} == {("homlora_r8",
                                                                "homlora_r8")}

    def test_run_flag_overrides(self, cfg_file, tmp_path):
        out = tmp_path / "elsewhere"
        rc = main(["run", "--config", str(cfg_file), "--seed", "7",
                   "--out", str(out), "--strategy", "full_ft",
                   "--threads", "2"])
        assert rc == 0
        runs = read_jsonl(out / "records.jsonl")
        assert [r.seed for r in runs] == [7]
        assert runs[0].strategy == "full_ft"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("source", ["--out", "out_dir"])
    def test_empty_out_dir_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                  command, source):
        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_TEXT + ("out_dir =\n" if source == "out_dir" else ""))
        argv = [command, "--config", str(cfg)]
        if command == "sweep":
            argv += ["--strategies", "hetlora"]
        if source == "--out":
            argv += ["--out", ""]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "out_dir must not be empty" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_run_strategy_takes_exactly_the_strategy_tags(self, capsys):
        parser = build_parser()
        argv = ["run", "--config", "default", "--strategy"]
        for tag in ("hetlora", "homlora", "full_ft", "recon_svd"):
            assert parser.parse_args(argv + [tag]).strategy == tag
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["homlora_r2"])
        assert "invalid choice: 'homlora_r2'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("source", ["--out", "out_dir"])
    @pytest.mark.parametrize("below", [False, True])
    def test_output_directory_blocked_by_a_file_exits_2_before_any_run(
            self, tmp_path, capsys, monkeypatch, command, source, below):
        # the output directory, or a parent of it, exists as a file
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken

        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_TEXT + (f"out_dir = {out}\n" if source == "out_dir" else ""))
        argv = [command, "--config", str(cfg)]
        if command == "sweep":
            argv += ["--strategies", "hetlora", "--lr-grid"]
        if source == "--out":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"output directory {out}: {taken} is not a directory" in captured.err
        assert captured.out == ""

    def test_sweep_variant_directory_blocked_by_a_file_exits_2_before_any_run(
            self, cfg_file, tmp_path, capsys, monkeypatch):
        # out exists as a directory, but the second variant's out/<label> is a file
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "homlora_r2").write_text("")

        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out), "--seed", "0",
                     "--strategies", "hetlora,homlora:2"]) == 2
        captured = capsys.readouterr()
        blocked = out / "homlora_r2"
        assert f"output directory {blocked}: {blocked} is not a directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("blocked", ["records.jsonl", "records_summary.csv"])
    def test_run_output_file_that_is_a_directory_exits_2_before_any_run(
            self, cfg_file, tmp_path, capsys, monkeypatch, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)

        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"output file {out / blocked} is a directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("blocked", ["homlora_r2/records.jsonl",
                                         "homlora_r2/records_summary.csv",
                                         "sweep_summary.csv"])
    def test_sweep_output_file_that_is_a_directory_exits_2_before_any_run(
            self, cfg_file, tmp_path, capsys, monkeypatch, blocked):
        out = tmp_path / "sweep"
        (out / blocked).mkdir(parents=True)

        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out), "--seed", "0",
                     "--strategies", "hetlora,homlora:2"]) == 2
        captured = capsys.readouterr()
        assert f"output file {out / blocked} is a directory" in captured.err
        assert captured.out == ""

    # (command, what is too long, whether the output directory exists)
    @pytest.mark.parametrize("command,where,made", [
        ("run", "--out", False), ("run", "--out", True), ("sweep", "--out", False),
        ("sweep", "--out", True), ("run", "path", False), ("sweep", "path", False),
    ])
    def test_output_name_the_filesystem_refuses_exits_2_before_any_run(
            self, cfg_file, tmp_path, capsys, monkeypatch, command, where, made):
        long = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
        out = tmp_path / "out"
        if made:
            out.mkdir()
        argv = [command, "--config", str(cfg_file), "--seed", "0"]
        if where == "--out":
            refused = out / long
            argv += ["--out", str(refused)]
        else:
            # short names, but the output files' paths are too long
            room = os.pathconf(tmp_path, "PC_PATH_MAX") - len(str(out)) - 8
            refused = out.joinpath(*["y" * 99] * (room // 100), "y" * (room % 100))
            argv += ["--out", str(refused)]
        if command == "sweep":
            argv += ["--strategies", "hetlora"]
        before = sorted(tmp_path.rglob("*"))

        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error: output " in captured.err and str(refused) in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("task.d = twelve\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_config_not_utf8_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                    command):
        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"task.d = 8\n\xff\n")
        argv = [command, "--config", str(bad), "--out", "o"]
        if command == "sweep":
            argv += ["--strategies", "hetlora"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"config error: {bad}: 'utf-8' codec can't decode" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_config_path_the_filesystem_refuses_exits_2_before_any_run(
            self, tmp_path, capsys, monkeypatch, command):
        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        long = tmp_path / ("a" * os.pathconf(tmp_path, "PC_NAME_MAX") + ".cfg")
        argv = [command, "--config", str(long), "--out", str(tmp_path / "o")]
        assert main(argv + (["--strategies", "hetlora"] if command == "sweep" else [])) == 2
        captured = capsys.readouterr()
        assert f"config error: {long}: " in captured.err and "Traceback" not in captured.err
        assert captured.err.count(long.name) == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("key,value,message", ONE_REFUSAL,
                             ids=[f"{key}-{value}" for key, value, _ in ONE_REFUSAL])
    def test_config_is_the_one_refusal_of_a_bad_value(self, tmp_path, capsys,
                                                      monkeypatch, key, value, message):
        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        bad = tmp_path / "bad.cfg"
        bad.write_text(set_key(TINY_TEXT, key, value))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {bad}: ")
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_dir_is_not_read_from_the_environment(self, cfg_file, tmp_path,
                                                      monkeypatch, command):
        # a variable that once chose the output directory now changes nothing
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setenv("HETLORA_OUT_DIR", str(taken))
        argv = [command, "--config", str(cfg_file), "--seed", "0"]
        if command == "sweep":
            argv += ["--strategies", "hetlora"]
        assert main(argv) == 0
        assert len(list((tmp_path / "results").rglob("records.jsonl"))) == 1
        assert taken.read_text() == ""

    def test_two_runs_are_kept_apart_by_out(self, cfg_file, tmp_path):
        # every run writes records.jsonl; a second --out keeps the first stream
        for seed in (0, 1):
            out = tmp_path / f"seed{seed}"
            assert main(["run", "--config", str(cfg_file), "--seed", str(seed),
                         "--out", str(out)]) == 0
        for seed in (0, 1):
            out = tmp_path / f"seed{seed}"
            assert sorted(p.name for p in out.iterdir()) == ["records.jsonl",
                                                             "records_summary.csv"]
            assert [r.seed for r in read_jsonl(out / "records.jsonl")] == [seed]
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("seeds", ["4294967296", "0,18446744073709551616"])
    def test_seed_of_2_to_the_32_or_more_exits_2(self, cfg_file, tmp_path, capsys,
                                                 seeds):
        # selection and batch streams take 32-bit seeds
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--seed", seeds,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "in seeds is outside [0, 2**32)" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1000", "-3000"])
    def test_rank_alpha_whose_weights_overflow_or_vanish_exits_2(
            self, tmp_path, capsys, alpha):
        # on the smoke config's ranks [2, 8], r^(alpha - 1) overflows at
        # alpha 1000 and is 0 for every rank at -3000
        text = (ROOT / "configs" / "smoke.cfg").read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text(set_key(text, "rank_alpha", alpha))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "rank_alpha" in err and "Warning" not in err
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
        rows = csv_rows(out / "full_ft" / "records_summary.csv")
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
        rows = csv_rows(out / "sweep_summary.csv")
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

    @pytest.mark.parametrize("tag", ["homlora:0", "homlora:9"])
    def test_sweep_homlora_rank_out_of_range_exits_2_before_any_run(
            self, cfg_file, tmp_path, capsys, monkeypatch, tag):
        # TINY_TEXT's adapters are at most min(d, l) = 8 wide
        def run_strategy(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_strategy", run_strategy)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                     "--strategies", f"hetlora,{tag}"]) == 2
        captured = capsys.readouterr()
        rank = tag.split(":")[1]
        assert captured.err == f"config error: homlora_rank {rank} out of range\n"
        assert captured.out == "" and not out.exists()

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
        row, = csv_rows(out / "sweep_summary.csv", csv.DictReader)
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
        rows = csv_rows(out / "sweep_summary.csv")
        assert [r[0] for r in rows[1:]] == ["hetlora", "full_ft"]

    def test_sweep_gamma_ablation_variants(self, cfg_file, tmp_path):
        out = tmp_path / "gamma"
        rc = main(["sweep", "--config", str(cfg_file), "--out", str(out),
                   "--seed", "0", "--gamma-ablation"])
        assert rc == 0
        rows = csv_rows(out / "sweep_summary.csv")
        assert [r[0] for r in rows[1:]] == [
            "gamma_1", "gamma_0.99", "gamma_0.95", "gamma_0.85",
        ]

    def test_sweep_without_variants(self, cfg_file, capsys):
        assert main(["sweep", "--config", str(cfg_file)]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_each_setting_has_one_source(self):
        # the commands' options, and no setting read from the environment
        parser = build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {name: sorted(s for a in p._actions for s in a.option_strings)
                   for name, p in sub.choices.items()}
        common = ["--config", "--help", "--out", "--seed", "--threads", "-h"]
        assert options == {
            "run": sorted(common + ["--strategy"]),
            "sweep": sorted(common + ["--gamma-ablation", "--lr-grid", "--strategies"]),
            "report": ["--csv", "--help", "--target", "-h"],
        }
        for path in sorted((ROOT / "src" / "hetlora").rglob("*.py")):
            assert not re.search(r"environ|getenv", path.read_text()), path

    def test_importing_the_cli_leaves_numpy_random_unimported(self):
        # numpy.random costs milliseconds of every command's start-up; the
        # simulator imports it on its first draw (linalg._pcg64_of_words)
        code = "import sys, hetlora.cli; print('numpy.random' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

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
        rows = csv_rows(report_csv)
        assert rows[0][0] == "label"
        assert len(rows) == 2

    def test_report_default_target_is_half_the_mean_initial_loss(self, tmp_path,
                                                                 capsys):
        # at 8 rounds seed 0 meets the target and seed 1 does not
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(set_key(TINY_TEXT, "rounds", 8))
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--seed", "0,1", "--out", str(out)]) == 0
        report_csv = tmp_path / "report.csv"
        assert main(["report", str(out), "--csv", str(report_csv)]) == 0
        [row] = csv_rows(report_csv, csv.DictReader)
        runs = read_jsonl(out / "records.jsonl")
        target = 0.5 * (runs[0].initial_eval_loss + runs[1].initial_eval_loss) / 2
        assert row["target"] == f"{target:.10g}"
        # each seed's first round at or below the target, X if none is
        hits = [next((str(t) for t, v in enumerate(r.eval_curve()) if v <= target), "X")
                for r in runs]
        assert row["rounds_to_target"] == "/".join(hits) and hits[0] != "X"

    def test_report_csv_that_is_a_directory_exits_2_before_reading(
            self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "records.jsonl"
        write_jsonl([fake_run()], path)

        def read_jsonl(path):
            raise AssertionError("a stream was read")

        monkeypatch.setattr(cli, "read_jsonl", read_jsonl)
        assert main(["report", str(path), "--csv", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert f"output file {tmp_path} is a directory" in captured.err
        assert captured.out == ""

    def test_report_csv_below_a_file_exits_2_before_reading(self, tmp_path, capsys,
                                                            monkeypatch):
        path = tmp_path / "records.jsonl"
        write_jsonl([fake_run()], path)

        def read_jsonl(path):
            raise AssertionError("a stream was read")

        monkeypatch.setattr(cli, "read_jsonl", read_jsonl)
        target = path / "sub" / "r.csv"
        assert main(["report", str(path), "--csv", str(target)]) == 2
        captured = capsys.readouterr()
        assert f"output directory {target.parent}: {path} is not a directory" in captured.err
        assert captured.out == ""

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
        rows = csv_rows(report_csv)[1:]
        # target 0.05 is met at round 2: 2 * (down + 90) params
        assert [float(r[5]) for r in rows] == [380.0, 760.0, 380.0]

    @pytest.mark.parametrize("full_losses, header, het_cell", [
        ((0.08, 0.07), "comm to target", "params"),
        ((0.08, 0.05), "comm ratio vs full", "0.5"),
    ], ids=["full_ft_misses", "full_ft_meets"])
    def test_report_comm_header_says_what_its_cells_hold(self, tmp_path, capsys,
                                                         full_losses, header, het_cell):
        # the cells are ratios only when the one full_ft stream met the
        # target (0.05); else they are absolute params, and so says the header
        write_jsonl([fake_run(strategy="full_ft", losses=full_losses, down=290)],
                    tmp_path / "full" / "records.jsonl")
        write_jsonl([fake_run()], tmp_path / "het" / "records.jsonl")
        assert main(["report", str(tmp_path)]) == 0
        head, _, het = capsys.readouterr().out.splitlines()
        assert head.split("  ")[-1] == header
        assert het.split()[-1] == het_cell

    def test_report_labels_keep_streams_of_one_directory_apart(self, tmp_path,
                                                               capsys):
        # a records.jsonl is labelled by its directory, as a sweep variant's
        # stream is; any other stream by <dir>/<stem>
        for path, strategy in (("rr/het.jsonl", "hetlora"), ("rr/full.jsonl", "full_ft"),
                               ("sw/hetlora/records.jsonl", "hetlora")):
            write_jsonl([fake_run(strategy=strategy)], tmp_path / path)
        report_csv = tmp_path / "report.csv"
        assert main(["report", str(tmp_path), "--csv", str(report_csv)]) == 0
        table = capsys.readouterr().out.splitlines()[1:-1]
        want = [("rr/full", "full_ft"), ("rr/het", "hetlora"), ("hetlora", "hetlora")]
        assert [tuple(line.split()[:2]) for line in table] == want
        rows = csv_rows(report_csv, csv.DictReader)
        assert [(r["label"], r["strategy"]) for r in rows] == want

    def test_report_table_columns_line_up(self, tmp_path, capsys):
        # a label longer than any fixed column, and a short one: every cell
        # is padded to its column and the columns stay apart
        streams = {"a_rather_long_variant_name_x": fake_run(strategy="full_ft"),
                   "het": fake_run(losses=(0.08, 0.07))}
        for label, run in streams.items():
            write_jsonl([run], tmp_path / label / "records.jsonl")
        assert main(["report", str(tmp_path)]) == 0
        header, *table = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in table] == [
            [label, run.strategy] for label, run in streams.items()]
        at = header.index("rounds-to-target")
        assert [line[at - 1:].split()[0] for line in table] == ["2", "X"]
        assert all(line[at - 1] == " " != line[at] for line in table)

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

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf", "abc"])
    @pytest.mark.parametrize("flag", ["--target"])
    def test_report_refuses_a_target_not_finite_and_positive(self, tmp_path, capsys,
                                                            flag, value):
        path = tmp_path / "records.jsonl"
        write_jsonl([fake_run()], path)
        with pytest.raises(SystemExit) as e:
            main(["report", str(path), flag, value])
        assert e.value.code == 2 and f"argument {flag}: " in capsys.readouterr().err

    def test_report_csv_name_the_filesystem_refuses_exits_2_before_reading(
            self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "records.jsonl"
        write_jsonl([fake_run()], path)

        def read_jsonl(path):
            raise AssertionError("a stream was read")

        monkeypatch.setattr(cli, "read_jsonl", read_jsonl)
        csv_path = tmp_path / ("c" * os.pathconf(tmp_path, "PC_NAME_MAX") + ".csv")
        assert main(["report", str(path), "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert f"config error: output path {csv_path}: " in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_report_stream_not_utf8_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"\xff\n")
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"report: {path}:1: not UTF-8" in err and "Traceback" not in err

    def test_report_path_the_filesystem_refuses_exits_2_before_reading(
            self, tmp_path, capsys, monkeypatch):
        def read_jsonl(path):
            raise AssertionError("a stream was read")

        monkeypatch.setattr(cli, "read_jsonl", read_jsonl)
        long = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
        assert main(["report", str(long)]) == 2
        captured = capsys.readouterr()
        assert f"config error: report path {long}: " in captured.err
        assert captured.out == ""

    def test_report_directory_without_streams(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("")
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "report: no record streams found\n"

    def test_report_missing_path(self, capsys):
        assert main(["report", "/nonexistent/path.jsonl"]) == 2
