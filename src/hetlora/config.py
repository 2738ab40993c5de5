"""Experiment configuration: the dataclass, and a line-oriented key=value
config file format.

The file format is flat `key = value` pairs with `#` comments. Its keys are
the config dataclasses' fields: `task.<field>` for each `SyntheticTaskSpec`
field but `seed` (the run's seed), then each `ExperimentConfig` field but
`task`. A value is parsed by its field's annotation; lists are
comma-separated. Parse errors carry the file name and line number.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .server import AGGREGATION_STRATEGIES, rank_weights
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
    r_min: int = 2  # r_min, r_max and rank_alpha: hetlora and recon_svd only
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
        # a strategy's ranks are checked only where it reads them: hetlora
        # and recon_svd draw from [r_min, r_max] by rank_alpha, homlora runs
        # at homlora_rank, and full_ft has no rank
        drawn = self.strategy in ("hetlora", "recon_svd")
        if drawn and not 1 <= self.r_min <= self.r_max <= min(self.task.d, self.task.l):
            raise ConfigError(
                f"rank range r_min {self.r_min}, r_max {self.r_max} invalid for "
                f"{self.task.d}x{self.task.l}: need 1 <= r_min <= r_max <= min(d, l)"
            )
        if (self.strategy == "homlora"
                and not 1 <= self.homlora_rank <= min(self.task.d, self.task.l)):
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
        outside = [s for s in self.seeds if not 0 <= s < 2**32]
        if outside:
            raise ConfigError(f"seed {outside[0]} in seeds is outside [0, 2**32)")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
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
        if drawn:
            try:
                rank_weights(self.r_min, self.r_max, self.rank_alpha)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

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


# a field's annotation -> the parser of its value; a field without one fails here
_PARSERS = {"int": int, "float": float, "str": str, "tuple[int, ...]": _parse_int_list,
            "int | tuple[int, ...] | str": _parse_complexity}

# key -> (target, field name, parser); target "task" nests into the task spec
_SCHEMA = {
    **{f"task.{f.name}": ("task", f.name, _PARSERS[f.type])
       for f in fields(SyntheticTaskSpec) if f.name != "seed"},
    **{f.name: ("cfg", f.name, _PARSERS[f.type])
       for f in fields(ExperimentConfig) if f.name != "task"},
}

_REQUIRED_TASK_KEYS = [f.name for f in fields(SyntheticTaskSpec) if f.default is MISSING]


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

    missing = [k for k in _REQUIRED_TASK_KEYS if k not in task_kwargs]
    if missing:
        raise ConfigError(f"{source}: missing required task keys: {missing}")
    try:
        task = SyntheticTaskSpec(**task_kwargs)
        return ExperimentConfig(task=task, **cfg_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(name_or_path: str) -> ExperimentConfig:
    """Load a UTF-8 config from a file path, or by name from the bundled
    configs (e.g. "default")."""
    path = Path(name_or_path)
    source = str(path)
    try:
        if not path.is_file():
            path = resources.files("hetlora").joinpath("configs", f"{name_or_path}.cfg")
            source = f"builtin:{name_or_path}"
            if not path.is_file():
                raise ConfigError(f"config not found: {name_or_path!r}")
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        # str(OSError) ends with the file name, which source already gives
        why = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"{source}: {why}") from None
    return parse_config_text(text, source=source)

