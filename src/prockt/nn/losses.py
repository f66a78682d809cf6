"""Loss functions built from autodiff primitives."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

PROB_EPS = 1e-7


def bce(labels, probs: Tensor, mask=None) -> Tensor:
    """Binary cross-entropy over supervised positions.

    Probabilities are clamped to [PROB_EPS, 1-PROB_EPS] so the loss is
    finite for saturated predictions. ``mask`` selects supervised
    positions; an all-zero mask yields a zero loss.
    """
    y = np.asarray(labels, dtype=probs.data.dtype)
    if mask is None:
        mask = np.ones_like(y)
    m = np.asarray(mask, dtype=probs.data.dtype)
    p = T.clamp(probs, PROB_EPS, 1.0 - PROB_EPS)
    ll = T.add(T.mul(y, T.log(p)), T.mul(1.0 - y, T.log(T.add(1.0, T.mul(p, -1.0)))))
    return T.mul(T.masked_mean(ll, m), -1.0)


def masked_mse(targets, preds: Tensor, mask) -> Tensor:
    """Mean squared error over masked positions; 0 when the mask is empty."""
    t = np.asarray(targets, dtype=preds.data.dtype)
    m = np.asarray(mask, dtype=preds.data.dtype)
    diff = T.add(preds, -t)
    return T.masked_mean(T.mul(diff, diff), m)
