"""StatusKT's training objective as one autodiff node."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _make, as_tensor

PROB_EPS = 1e-7


def composite_loss(r_gt, r_pred: Tensor, mp_gt, mp_pred: Tensor | None,
                   mp_mask, valid_mask, alpha: float) -> Tensor:
    """BCE on next-step correctness plus ``alpha`` times the sum, over the
    columns of ``mp_pred`` (CU, SC, PF, AR), of a masked MSE on the ratios.

    ``valid_mask`` selects positions with a real next step; each column's
    MSE is further masked by its presence bit in ``mp_mask``. Each mean
    divides by its mask's sum floored at 1, so an empty mask gives 0.
    Probabilities are clipped to [PROB_EPS, 1-PROB_EPS] so the BCE stays
    finite when a prediction saturates. With ``alpha`` = 0 or no
    ``mp_pred`` the loss is the BCE term alone, with nothing added to it.

    The forward does the float operations of the node-by-node graph in
    ``tests/reference.py`` in the same order, and the backward is its closed
    form, each element computed in that graph's order; so the value and
    both gradients match the graph bit for bit.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    r_pred = as_tensor(r_pred)
    y = np.asarray(r_gt, dtype=np.float64)
    m = np.asarray(valid_mask, dtype=np.float64)
    n = max(float(m.sum()), 1.0)
    p = np.clip(r_pred.data, PROB_EPS, 1.0 - PROB_EPS)
    inside = (r_pred.data >= PROB_EPS) & (r_pred.data <= 1.0 - PROB_EPS)
    q = 1.0 + p * -1.0
    loss = ((y * np.log(p) + (1.0 - y) * np.log(q)) * m).sum() / n * -1.0
    parents = (r_pred,)
    terms = []  # (diff, mask, denominator) of each column's MSE
    if alpha != 0 and mp_pred is not None:
        mp_pred = as_tensor(mp_pred)
        parents += (mp_pred,)
        mp_gt, mp_mask = np.asarray(mp_gt, dtype=np.float64), np.asarray(mp_mask)
        total = None
        for i in range(mp_pred.shape[-1]):
            m_i = m * mp_mask[..., i]
            n_i = max(float(m_i.sum()), 1.0)
            diff = mp_pred.data[..., i] + -mp_gt[..., i]
            term = (diff * diff * m_i).sum() / n_i
            total = term if total is None else total + term
            terms.append((diff, m_i, n_i))
        loss = loss + total * float(alpha)

    def backward_fn(g):
        gl = g * -1.0 * m / n
        r_pred._accumulate((gl * y / p + gl * (1.0 - y) / q * -1.0) * inside)
        if terms:
            ga = g * float(alpha)
            grad = np.zeros_like(mp_pred.data)
            for i, (diff, m_i, n_i) in enumerate(terms):
                x = ga * m_i / n_i * diff
                grad[..., i] += x + x
            mp_pred._accumulate(grad)

    return _make(loss, parents, backward_fn, "composite_loss")
