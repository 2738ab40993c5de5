"""Deterministic simulator for federated fine-tuning with heterogeneous-rank
LoRA adapters on synthetic desk-scale tasks."""

from .config import ExperimentConfig, load_config
from .linalg import Matrix, Rng, seeded_rng
from .lora import LoraPair
from .records import RoundRecord, RunResult, rounds_to_target
from .tasks import SyntheticTask, SyntheticTaskSpec, generate_task

__all__ = [
    "ExperimentConfig",
    "LoraPair",
    "Matrix",
    "Rng",
    "RoundRecord",
    "RunResult",
    "SyntheticTask",
    "SyntheticTaskSpec",
    "generate_task",
    "load_config",
    "rounds_to_target",
    "seeded_rng",
]

__version__ = "0.1.0"
