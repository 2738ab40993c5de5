"""Synthetic federated regression tasks with controllable per-client data
complexity.

Each task is a linear model with a frozen base weight w0 and a hidden
exactly-rank-rho* target update. Every client holds samples_per_client
samples, and client k's inputs live in a fixed rho_k-dimensional subspace
of the input space, so rho_k is the rank its local data actually requires
of an adapter. Loss is mean squared error, which keeps exact gradient and
least-squares oracles available while preserving the protocol-relevant
structure (low-rank targets, noise overfitting, heterogeneous complexity).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    samples_per_client: int = 30  # every client holds this many samples
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
        for name in ("d", "l", "samples_per_client", "eval_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)} must be >= 1")
        if not 1 <= self.true_rank <= min(self.d, self.l):
            raise ValueError("true_rank must be in [1, min(d, l)]")
        if self.num_clients < 1:
            raise ValueError(f"num_clients {self.num_clients}: need at least one client")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std {self.noise_std} must be finite and >= 0")
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


@dataclass(frozen=True)
class ClientDataset:
    """Samples as rows: inputs is n x l, targets is n x d.

    A task's client datasets are views of rows of its pool: client k's are
    rows [k n, (k + 1) n), which local training gathers from the pool and
    from the task's base-residual table by flat row index.
    """

    inputs: Matrix
    targets: Matrix

    def __post_init__(self):
        if self.inputs.rows != self.targets.rows:
            raise ValueError("inputs and targets must have equal sample counts")


@dataclass(frozen=True)
class FrozenBaseModel:
    """The pre-trained weight; never modified by any training path."""

    w0: Matrix


@dataclass(frozen=True)
class SyntheticTask:
    spec: SyntheticTaskSpec
    base: FrozenBaseModel
    target_delta: Matrix  # the hidden rank-rho* update, Frobenius norm 1
    pool: ClientDataset  # all samples; clients[k] views rows [k n, (k + 1) n)
    base_resid: Matrix  # x w0' - y of every pool row, N n x d
    clients: tuple[ClientDataset, ...]
    complexities: tuple[int, ...]
    eval_set: ClientDataset  # full input distribution, noiseless targets
    eval_gram: Matrix  # X'X of the eval inputs, l x l


def _resolve_complexities(spec: SyntheticTaskSpec, rng: Rng) -> tuple[int, ...]:
    if isinstance(spec.client_complexity, int):
        return (spec.client_complexity,) * spec.num_clients
    if spec.client_complexity == "uniform":
        return tuple(
            1 + rng.sample_discrete([1.0] * spec.true_rank)
            for _ in range(spec.num_clients)
        )
    return tuple(spec.client_complexity)


# a task is a pure function of its spec and its arrays are read-only, so a
# process keeps the last 4 built and hands an equal spec the same task;
# overflow is reported by the finiteness check, not by numpy warnings
@functools.lru_cache(maxsize=4)
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
    left, _ = np.linalg.qr(fr.gaussian(spec.d, spec.true_rank).array)
    right, _ = np.linalg.qr(fr.gaussian(spec.l, spec.true_rank).array)
    sigma = spec.target_spectrum_decay ** np.arange(spec.true_rank)
    delta = (left * sigma) @ right.T
    delta *= spec.target_norm / np.linalg.norm(delta)

    complexities = _resolve_complexities(spec, root.child("complexity"))
    n = spec.samples_per_client
    w_full = w0.array + delta

    pool_x = np.empty((spec.num_clients * n, spec.l))
    pool_y = np.empty((spec.num_clients * n, spec.d))
    xs = pool_x.reshape(spec.num_clients, n, spec.l)
    ys = pool_y.reshape(spec.num_clients, n, spec.d)
    for k in range(spec.num_clients):
        crng = root.child("client", k)
        rho = complexities[k]
        basis, _ = np.linalg.qr(crng.gaussian(spec.l, rho).array)
        z = crng.gaussian(n, rho).array
        x = z @ basis.T
        y = x @ w_full.T
        if spec.noise_std > 0:
            y = y + crng.gaussian(n, spec.d, std=spec.noise_std).array
        xs[k], ys[k] = x, y

    # np.subtract frees the product before round 1, which raises glibc's
    # mmap and trim thresholds above a round's arrays: they then stay on the
    # heap, not page-faulted in anew each round (resid -= pool_y frees none)
    resid = np.subtract(pool_x @ w0.array.T, pool_y)
    er = root.child("eval")
    ex = er.gaussian(spec.eval_samples, spec.l).array
    ey = ex @ w_full.T
    if not all(np.isfinite(v).all() for v in (w0.array, delta, pool_x, pool_y, resid, ex, ey)):
        raise ValueError(f"task values are not finite; {OVERFLOW_HINT}")

    return SyntheticTask(
        spec=spec,
        base=FrozenBaseModel(w0=w0),
        target_delta=Matrix._wrap(delta),
        pool=ClientDataset(inputs=Matrix._wrap(pool_x), targets=Matrix._wrap(pool_y)),
        base_resid=Matrix._wrap(resid),
        clients=tuple(ClientDataset(inputs=Matrix._wrap(x), targets=Matrix._wrap(y))
                      for x, y in zip(xs, ys)),
        complexities=complexities,
        eval_set=ClientDataset(inputs=Matrix._wrap(ex), targets=Matrix._wrap(ey)),
        eval_gram=Matrix._wrap(ex.T @ ex),
    )


def dense_loss(delta: Matrix, task: SyntheticTask) -> float:
    """The held-out loss of the adapted model w0 + delta: the mean over the
    eval set of 0.5 * ||(w0 + delta) x - y||^2.

    The eval targets are noiseless, (w0 + delta*) x, so the residual of a
    sample is E x with E = delta - delta*, and the loss is
    0.5 / n * sum((E G) * E) with G = X'X, the l x l Gram matrix of the n
    eval inputs (task.eval_gram): no n x d residual is formed. A
    non-finite delta gives a non-finite loss.
    """
    e = delta.array - task.target_delta.array
    return float(0.5 * np.sum((e @ task.eval_gram.array) * e) / task.spec.eval_samples)


def loss(p: LoraPair, task: SyntheticTask) -> float:
    """The held-out loss of the adapted model w0 + b @ a, as dense_loss."""
    return dense_loss(Matrix._wrap(p.b.array @ p.a.array), task)
