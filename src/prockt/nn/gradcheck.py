"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

EPS = 1e-4   # central-difference step
ATOL = 1e-8  # floor of the relative-error denominator, scaled by 1/EPS


def numeric_gradient(f: Callable[[], Tensor], param: Tensor) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. param, one entry at a time."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = f().item()
        flat[i] = orig - EPS
        lo = f().item()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * EPS)
    return grad


def check_gradients(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Max relative error between backward() gradients and finite differences.

    Relative error uses a denominator floored by ``ATOL / EPS`` so
    near-zero gradients compare on an absolute scale.
    """
    for p in params:
        p.grad = None
    out = f()
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        n = numeric_gradient(f, p)
        denom = np.maximum(np.abs(a) + np.abs(n), ATOL / EPS)
        rel = np.abs(a - n) / denom
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
    return worst
