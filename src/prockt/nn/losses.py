"""StatusKT's training objective as one autodiff node."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _make, as_tensor

PROB_EPS = 1e-7


def composite_loss(r_gt, probs: Tensor, mp_gt, mp_mask, valid_mask, alpha: float) -> Tensor:
    """BCE on column 0 of the (..., k) ``probs``, P(next answer correct), plus
    ``alpha`` times the sum, over its further columns (CU, SC, PF, AR), of a
    masked MSE on the ratios.

    ``valid_mask`` selects positions with a real next step; each column's
    MSE is further masked by its presence bit in ``mp_mask``. Each mean
    divides by its mask's sum floored at 1, so an empty mask gives 0.
    Probabilities are clipped to [PROB_EPS, 1-PROB_EPS] so the BCE stays
    finite when a prediction saturates. With ``alpha`` = 0 or k = 1 the
    loss is the BCE term alone, with nothing added to it.

    The forward does the float operations of the node-by-node graph in
    ``tests/reference.py`` in the same order, and the backward is its closed
    form, each element computed in that graph's order; so the value and the
    gradient match the graph bit for bit. That graph slices the columns out
    of ``probs``; each slice scatters its gradient into zeros, so every
    column of the gradient here is 0 plus its term, which turns -0.0 to 0.0.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    probs = as_tensor(probs)
    r = probs.data[..., 0]
    y = np.asarray(r_gt, dtype=np.float64)
    m = np.asarray(valid_mask, dtype=np.float64)
    n = max(float(m.sum()), 1.0)
    p = np.clip(r, PROB_EPS, 1.0 - PROB_EPS)
    inside = (r >= PROB_EPS) & (r <= 1.0 - PROB_EPS)
    q = 1.0 + p * -1.0
    loss = ((y * np.log(p) + (1.0 - y) * np.log(q)) * m).sum() / n * -1.0
    terms = []  # (diff, mask, denominator) of each ratio column's MSE
    if alpha != 0 and probs.shape[-1] > 1:
        mp_gt, mp_mask = np.asarray(mp_gt, dtype=np.float64), np.asarray(mp_mask)
        total = None
        for i in range(probs.shape[-1] - 1):
            m_i = m * mp_mask[..., i]
            n_i = max(float(m_i.sum()), 1.0)
            diff = probs.data[..., 1 + i] + -mp_gt[..., i]
            term = (diff * diff * m_i).sum() / n_i
            total = term if total is None else total + term
            terms.append((diff, m_i, n_i))
        loss = loss + total * float(alpha)

    def backward_fn(g):
        gl = g * -1.0 * m / n
        grad = np.zeros_like(probs.data)
        grad[..., 0] += (gl * y / p + gl * (1.0 - y) / q * -1.0) * inside
        ga = g * float(alpha)
        for i, (diff, m_i, n_i) in enumerate(terms, start=1):
            x = ga * m_i / n_i * diff
            grad[..., i] += x + x
        probs._accumulate(grad)

    return _make(loss, (probs,), backward_fn, "composite_loss")
