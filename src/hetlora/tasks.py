"""Synthetic federated regression tasks with controllable per-client data
complexity.

Each task is a linear model with a frozen base weight w0 and a hidden
exactly-rank-rho* target update. Client k's inputs live in a fixed
rho_k-dimensional subspace of the input space, so rho_k is the rank its
local data actually requires of an adapter. Loss is mean squared error,
which keeps exact gradient and least-squares oracles available while
preserving the protocol-relevant structure (low-rank targets, noise
overfitting, heterogeneous complexity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import Matrix, Rng, seeded_rng
from .lora import LoraPair

# what to change when a task's values or its initial eval loss overflow
OVERFLOW_HINT = "lower task.target_norm or task.noise_std"


@dataclass(frozen=True)
class SyntheticTaskSpec:
    d: int
    l: int
    true_rank: int
    num_clients: int
    samples_per_client: int | tuple[int, ...] = 30
    noise_std: float = 0.1
    # per-client intrinsic rank: an int (same for all), an explicit tuple,
    # or "uniform" for i.i.d. uniform over [1, true_rank]
    client_complexity: int | tuple[int, ...] | str = "uniform"
    seed: int = 0
    eval_samples: int = 512
    # Frobenius norm of the hidden update; with noise_std fixed this sets the
    # signal-to-noise ratio of the benchmark
    target_norm: float = 0.4
    # geometric decay of the update's singular values (1.0 = flat spectrum)
    target_spectrum_decay: float = 0.5

    def __post_init__(self):
        if self.d <= 0 or self.l <= 0:
            raise ValueError("base dimensions must be positive")
        if not 1 <= self.true_rank <= min(self.d, self.l):
            raise ValueError("true_rank must be in [1, min(d, l)]")
        if self.num_clients < 1:
            raise ValueError("need at least one client")
        counts = self.samples_per_client
        if isinstance(counts, tuple) and len(counts) != self.num_clients:
            raise ValueError(f"samples_per_client list length {len(counts)} must "
                             f"equal num_clients {self.num_clients}")
        if any(c < 1 for c in (counts if isinstance(counts, tuple) else (counts,))):
            raise ValueError(f"samples_per_client {counts} must be >= 1")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std {self.noise_std} must be finite and >= 0")
        if self.eval_samples < 1:
            raise ValueError("eval_samples must be positive")
        if not (math.isfinite(self.target_norm) and self.target_norm > 0):
            raise ValueError(f"target_norm {self.target_norm} must be finite and > 0")
        if not 0 < self.target_spectrum_decay <= 1:
            raise ValueError("target_spectrum_decay must be in (0, 1]")
        c = self.client_complexity
        if isinstance(c, str):
            if c != "uniform":
                raise ValueError(f"unknown client_complexity {c!r}")
        elif isinstance(c, tuple) and len(c) != self.num_clients:
            raise ValueError(f"client_complexity list length {len(c)} must equal "
                             f"num_clients {self.num_clients}")
        elif any(not 1 <= r <= self.true_rank
                 for r in (c if isinstance(c, tuple) else (c,))):
            raise ValueError(f"client_complexity {c} outside [1, {self.true_rank}]")

    def sample_counts(self) -> tuple[int, ...]:
        if isinstance(self.samples_per_client, int):
            return (self.samples_per_client,) * self.num_clients
        return self.samples_per_client


@dataclass(frozen=True)
class ClientDataset:
    """Samples as rows: inputs is n x l, targets is n x d.

    generate_task keeps every client's samples in one pool, a dataset of
    all their rows in client order. A client's inputs and targets are views
    of the pool's rows [start, start + n), so a cohort's mini-batches are
    gathered from the pool with one index. A dataset without a pool is its
    own.
    """

    inputs: Matrix
    targets: Matrix
    pool: ClientDataset | None = field(default=None, compare=False, repr=False)
    start: int = 0

    def __post_init__(self):
        if self.inputs.rows != self.targets.rows:
            raise ValueError("inputs and targets must have equal sample counts")

    @property
    def size(self) -> int:
        return self.inputs.rows


@dataclass(frozen=True)
class FrozenBaseModel:
    """The pre-trained weight; never modified by any training path."""

    w0: Matrix


@dataclass(frozen=True)
class SyntheticTask:
    spec: SyntheticTaskSpec
    base: FrozenBaseModel
    target_delta: Matrix  # the hidden rank-rho* update, Frobenius norm 1
    clients: tuple[ClientDataset, ...]
    complexities: tuple[int, ...]
    eval_set: ClientDataset  # full input distribution, noiseless targets


def _resolve_complexities(spec: SyntheticTaskSpec, rng: Rng) -> tuple[int, ...]:
    if isinstance(spec.client_complexity, int):
        return (spec.client_complexity,) * spec.num_clients
    if spec.client_complexity == "uniform":
        return tuple(
            1 + rng.sample_discrete([1.0] * spec.true_rank)
            for _ in range(spec.num_clients)
        )
    return tuple(spec.client_complexity)


# overflow is reported by the finiteness check, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def generate_task(spec: SyntheticTaskSpec) -> SyntheticTask:
    """Build a reproducible task from the spec's seed.

    The hidden update is a product of random rank-rho* factors with a
    geometric singular spectrum, scaled to target_norm in Frobenius norm,
    so the initial held-out loss is 0.5 * target_norm^2. Eval targets are
    noiseless, so held-out loss measures the squared recovery error of the
    update directly. Raises ValueError if a generated value is not finite.
    """
    root = seeded_rng(spec.seed)
    w0 = root.child("base").gaussian(spec.d, spec.l, std=1.0 / np.sqrt(spec.l))
    fr = root.child("target")
    left, _ = np.linalg.qr(fr.normal_array((spec.d, spec.true_rank)))
    right, _ = np.linalg.qr(fr.normal_array((spec.l, spec.true_rank)))
    sigma = spec.target_spectrum_decay ** np.arange(spec.true_rank)
    delta = (left * sigma) @ right.T
    delta *= spec.target_norm / np.linalg.norm(delta)

    complexities = _resolve_complexities(spec, root.child("complexity"))
    counts = spec.sample_counts()
    w_full = w0.array + delta

    starts = np.concatenate([[0], np.cumsum(counts)]).tolist()
    pool_x = np.empty((starts[-1], spec.l))
    pool_y = np.empty((starts[-1], spec.d))
    for k in range(spec.num_clients):
        crng = root.child("client", k)
        rho = complexities[k]
        basis, _ = np.linalg.qr(crng.normal_array((spec.l, rho)))
        z = crng.normal_array((counts[k], rho))
        x = z @ basis.T
        y = x @ w_full.T
        if spec.noise_std > 0:
            y = y + crng.normal_array((counts[k], spec.d), std=spec.noise_std)
        pool_x[starts[k]:starts[k + 1]] = x
        pool_y[starts[k]:starts[k + 1]] = y

    er = root.child("eval")
    ex = er.normal_array((spec.eval_samples, spec.l))
    ey = ex @ w_full.T
    if not all(np.isfinite(v).all() for v in (w0.array, delta, pool_x, pool_y, ex, ey)):
        raise ValueError(f"task values are not finite; {OVERFLOW_HINT}")

    pool = ClientDataset(inputs=Matrix._wrap(pool_x), targets=Matrix._wrap(pool_y))
    clients = [
        ClientDataset(inputs=Matrix._wrap(pool_x[start:end]),
                      targets=Matrix._wrap(pool_y[start:end]), pool=pool, start=start)
        for start, end in zip(starts, starts[1:])
    ]
    return SyntheticTask(
        spec=spec,
        base=FrozenBaseModel(w0=w0),
        target_delta=Matrix._wrap(delta),
        clients=tuple(clients),
        complexities=complexities,
        eval_set=ClientDataset(inputs=Matrix._wrap(ex), targets=Matrix._wrap(ey)),
    )


def _mean_half_squared(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> float:
    """0.5 * mean over rows of ||w x_i - y_i||^2, with one n x d temporary."""
    resid = x @ w.T
    resid -= y
    resid *= resid
    return float(0.5 * np.sum(resid) / x.shape[0])


def dense_loss(delta: Matrix, w0: Matrix, batch: ClientDataset) -> float:
    """Mean over the batch of 0.5 * ||(w0 + delta) x - y||^2."""
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    return _mean_half_squared(batch.inputs.array, w0.array + delta.array,
                              batch.targets.array)


def loss(p: LoraPair, w0: Matrix, batch: ClientDataset) -> float:
    """Mean squared-error loss of the adapted model w0 + b @ a on the batch."""
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    return _mean_half_squared(batch.inputs.array, w0.array + p.b.array @ p.a.array,
                              batch.targets.array)
