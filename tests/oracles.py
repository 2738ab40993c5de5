"""Reference formulas the tests check the simulator against.

They are written out from the definitions, one client at a time, apart
from the stacked cohort code they are compared with.
"""

import numpy as np

from hetlora.client import _add_reg_grad, _Tails, tail_block_norm
from hetlora.config import ExperimentConfig
from hetlora.server import Updates


def local_config(spec, **settings) -> ExperimentConfig:
    """A run config on the task spec, for local training: a plain FedAvg
    step (no regulariser, decay 1) at learning rate 0.01 unless `settings`
    say otherwise. Ranks and cohort size, which local training does not
    read, are the smallest the config takes."""
    plain = dict(r_min=1, r_max=1, clients_per_round=1,
                 learning_rate=0.01, reg_weight=0.0, decay=1.0)
    return ExperimentConfig(task=spec, **{**plain, **settings})


def dense_batch_loss(delta, w0, batch) -> float:
    """0.5 * mean over the batch of ||(w0 + delta) x_i - y_i||^2, from the
    n x d residual of the batch; delta is an array, w0 a Matrix."""
    x = batch.inputs.array
    resid = x @ (w0.array + delta).T - batch.targets.array
    return float(0.5 * np.sum(resid * resid) / x.shape[0])


def batch_loss(p, w0, batch) -> float:
    """The same loss of the adapted model w0 + b a."""
    return dense_batch_loss(p.b.array @ p.a.array, w0, batch)


def base_residuals(data, w0):
    """x w0' - y of every sample of a client's dataset, one row each: the
    client's rows of the residual table local training reads."""
    return data.inputs.array @ w0.T - data.targets.array


def dense_grads(b, a, w0, x, y):
    """Gradients of the batch loss 0.5 * mean ||(w0 + b a) x_i - y_i||^2
    with respect to b and a, through the dense d x l gradient.

    With the residual matrix R (n x d rows of (w0 + ba) x - y):
    g_dense = R' X / n, g_b = g_dense A' and g_a = B' g_dense.
    """
    resid = x @ (w0 + b @ a).T - y
    g_dense = resid.T @ x / len(x)
    return g_dense @ a.T, b.T @ g_dense


def lowrank_grads(b, a, x, r0, lr):
    """The same gradients in low-rank form, times the learning rate lr, as
    a local step subtracts them: with the base residuals r0 = x w0' - y of
    the batch rows (rows of base_residuals), xa = x a' and
    resid = r0 + xa b', lr g_b = resid' (xa lr / n) and
    lr g_a = (resid b lr / n)' x.
    """
    xa = x @ a.T
    resid = r0 + xa @ b.T
    scale = lr / len(x)
    return resid.T @ (xa * scale), ((resid @ b) * scale).T @ x


def grad(p, w0, batch):
    """Gradients of batch_loss with respect to the two factors, as arrays."""
    return dense_grads(p.b.array, p.a.array, w0.array, batch.inputs.array,
                       batch.targets.array)


def regularized_loss(p, w0, batch, cfg) -> float:
    """The local objective: data loss plus the weighted tail-block norm."""
    return batch_loss(p, w0, batch) + cfg.reg_weight * tail_block_norm(p, cfg.decay)


def stack(pairs, width=None):
    """The pairs' factors zero-padded to `width` (default: the largest rank)
    and stacked: b is m x d x width, a is m x width x l."""
    width = width or max(p.rank for p in pairs)
    b = np.zeros((len(pairs), pairs[0].d, width))
    a = np.zeros((len(pairs), width, pairs[0].l))
    for j, p in enumerate(pairs):
        b[j, :, : p.rank] = p.b.array
        a[j, : p.rank] = p.a.array
    return b, a


def updates(pairs):
    """(client id, LoraPair) updates as the stacks server.aggregate takes:
    each pair zero-padded to the largest rank (stack)."""
    ids, adapters = zip(*pairs)
    return Updates(list(ids), *stack(adapters), [p.rank for p in adapters])


def stacked_reg_grad(pairs, decay, reg_weight, base=None):
    """The regulariser's gradient for each pair, from one stacked
    _add_reg_grad call over all of them, added to `base` (one (gb, ga) per
    pair, zeros by default). Returns the padded stacks (gb, ga)."""
    b, a = stack(pairs)
    gb = np.zeros_like(b)
    ga = np.zeros_like(a)
    for j, (p, (pb, pa)) in enumerate(zip(pairs, base or [])):
        gb[j, :, : p.rank] = pb
        ga[j, : p.rank] = pa
    tails = _Tails([p.rank for p in pairs], decay)
    _add_reg_grad(gb, ga, tails, *tails.norms(b, a), reg_weight)
    return gb, ga
