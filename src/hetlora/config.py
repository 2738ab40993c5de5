"""Experiment configuration: the dataclass, and a line-oriented key=value
config file format.

The file format is flat `key = value` pairs with `#` comments. Values are
parsed per key; lists are comma-separated. Parse errors carry the file
name and line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .server import AGGREGATION_STRATEGIES
from .tasks import SyntheticTaskSpec

STRATEGY_TAGS = ("hetlora", "homlora", "full_ft", "recon_svd")

LEARNING_RATE_GRID = (0.3, 0.1, 0.03, 0.01, 0.003)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    task: SyntheticTaskSpec
    strategy: str = "hetlora"
    homlora_rank: int = 8  # used only by the homlora strategy
    r_min: int = 2
    r_max: int = 16
    rank_alpha: float = 0.1  # power-law skew of the initial rank assignment
    aggregation: str = "sparsity_weighted"
    reg_weight: float = 0.01
    decay: float = 0.99
    local_iters: int = 5
    batch_size: int = 8
    learning_rate: float = 0.3
    clients_per_round: int = 10
    rounds: int = 200
    seeds: tuple[int, ...] = (0, 1, 2)
    threads: int = 1  # validated (>= 1) but ignored: seeds run in one thread
    init_std: float = 0.1  # std of the right factor at round 0 (left starts 0)
    out_dir: str = "results"

    def __post_init__(self):
        if self.strategy not in STRATEGY_TAGS:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if not 1 <= self.r_min <= self.r_max <= min(self.task.d, self.task.l):
            raise ConfigError(
                f"rank range [{self.r_min}, {self.r_max}] invalid for "
                f"{self.task.d}x{self.task.l}"
            )
        if not 1 <= self.homlora_rank <= min(self.task.d, self.task.l):
            raise ConfigError(f"homlora_rank {self.homlora_rank} out of range")
        if not 1 <= self.clients_per_round <= self.task.num_clients:
            raise ConfigError(
                f"clients_per_round {self.clients_per_round} out of range"
            )
        if self.rounds < 0:
            raise ConfigError("rounds must be non-negative")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ConfigError(f"seed {repeated[0]} is listed twice in seeds")
        if min(self.seeds) < 0:
            raise ConfigError(f"seed {min(self.seeds)} in seeds is negative")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not 0 < self.decay <= 1:
            raise ConfigError(f"decay {self.decay} must be in (0, 1]")
        if not (math.isfinite(self.reg_weight) and self.reg_weight >= 0):
            raise ConfigError(f"reg_weight {self.reg_weight} must be finite and >= 0")
        if self.aggregation not in AGGREGATION_STRATEGIES:
            raise ConfigError(
                f"unknown aggregation {self.aggregation!r}; expected one of "
                f"{', '.join(AGGREGATION_STRATEGIES)}"
            )
        for name in ("batch_size", "local_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("learning_rate", "init_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} {value} must be finite and > 0")
        if not math.isfinite(self.rank_alpha):
            raise ConfigError(f"rank_alpha {self.rank_alpha} must be finite")

    @property
    def tag(self) -> str:
        """The strategy tag of this config's runs: the strategy, with its
        rank for homlora ('homlora_r2')."""
        if self.strategy == "homlora":
            return f"homlora_r{self.homlora_rank}"
        return self.strategy


def _parse_int_list(s: str):
    return tuple(int(x.strip()) for x in s.split(","))


def _parse_complexity(s: str):
    if s == "uniform":
        return s
    return _parse_int_list(s) if "," in s else int(s)


# key -> (target, field name, parser); target "task" nests into the task spec
_SCHEMA = {
    "task.d": ("task", "d", int),
    "task.l": ("task", "l", int),
    "task.true_rank": ("task", "true_rank", int),
    "task.num_clients": ("task", "num_clients", int),
    "task.samples_per_client": ("task", "samples_per_client", int),
    "task.noise_std": ("task", "noise_std", float),
    "task.client_complexity": ("task", "client_complexity", _parse_complexity),
    "task.eval_samples": ("task", "eval_samples", int),
    "task.target_norm": ("task", "target_norm", float),
    "task.target_spectrum_decay": ("task", "target_spectrum_decay", float),
    "strategy": ("cfg", "strategy", str),
    "homlora_rank": ("cfg", "homlora_rank", int),
    "r_min": ("cfg", "r_min", int),
    "r_max": ("cfg", "r_max", int),
    "rank_alpha": ("cfg", "rank_alpha", float),
    "aggregation": ("cfg", "aggregation", str),
    "reg_weight": ("cfg", "reg_weight", float),
    "decay": ("cfg", "decay", float),
    "local_iters": ("cfg", "local_iters", int),
    "batch_size": ("cfg", "batch_size", int),
    "learning_rate": ("cfg", "learning_rate", float),
    "clients_per_round": ("cfg", "clients_per_round", int),
    "rounds": ("cfg", "rounds", int),
    "seeds": ("cfg", "seeds", _parse_int_list),
    "threads": ("cfg", "threads", int),
    "init_std": ("cfg", "init_std", float),
    "out_dir": ("cfg", "out_dir", str),
}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    task_kwargs: dict = {}
    cfg_kwargs: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{source}:{lineno}: key {key!r} given twice, "
                              f"at lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        target, name, parser = _SCHEMA[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
        (task_kwargs if target == "task" else cfg_kwargs)[name] = parsed

    required = ("d", "l", "true_rank", "num_clients")
    missing = [k for k in required if k not in task_kwargs]
    if missing:
        raise ConfigError(f"{source}: missing required task keys: {missing}")
    try:
        task = SyntheticTaskSpec(**task_kwargs)
        return ExperimentConfig(task=task, **cfg_kwargs)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(name_or_path: str) -> ExperimentConfig:
    """Load a config from a file path, or by name from the bundled configs
    (e.g. "default")."""
    path = Path(name_or_path)
    if path.is_file():
        return parse_config_text(path.read_text(), source=str(path))
    bundled = resources.files("hetlora").joinpath("configs", f"{name_or_path}.cfg")
    if bundled.is_file():
        return parse_config_text(bundled.read_text(), source=f"builtin:{name_or_path}")
    raise ConfigError(f"config not found: {name_or_path!r}")

