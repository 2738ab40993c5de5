"""Reference formulas the tests check the simulator against.

They are written out from the definitions, one client at a time, apart
from the stacked cohort code they are compared with.
"""

import numpy as np

from hetlora.client import _add_reg_grad, _Tails, tail_block_norm
from hetlora.tasks import loss


def dense_grads(b, a, w0, x, y):
    """Gradients of the batch loss 0.5 * mean ||(w0 + b a) x_i - y_i||^2
    with respect to b and a, through the dense d x l gradient.

    With the residual matrix R (n x d rows of (w0 + ba) x - y):
    g_dense = R' X / n, g_b = g_dense A' and g_a = B' g_dense.
    """
    resid = x @ (w0 + b @ a).T - y
    g_dense = resid.T @ x / len(x)
    return g_dense @ a.T, b.T @ g_dense


def lowrank_grads(b, a, w0, x, y):
    """The same gradients in low-rank form, as local training takes them:
    with xa = x a' and resid = (x w0' - y + xa b') / n,
    g_b = resid' xa and g_a = (resid b)' x.
    """
    xa = x @ a.T
    resid = (x @ w0.T - y + xa @ b.T) / len(x)
    return resid.T @ xa, (resid @ b).T @ x


def grad(p, w0, batch):
    """Gradients of tasks.loss with respect to the two factors, as arrays."""
    return dense_grads(p.b.array, p.a.array, w0.array, batch.inputs.array,
                       batch.targets.array)


def regularized_loss(p, w0, batch, cfg) -> float:
    """The local objective: data loss plus the weighted tail-block norm."""
    return loss(p, w0, batch) + cfg.reg_weight * tail_block_norm(p, cfg.decay)


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
    _add_reg_grad(gb, ga, b, a, tails, tails.norms(b, a), reg_weight)
    return gb, ga
