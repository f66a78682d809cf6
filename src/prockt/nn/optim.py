"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction (BETA1, BETA2 and EPS above).

    A step updates ``m``, ``v`` and each parameter in place with the
    whole-array textbook expressions.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += ((1.0 - BETA2) * g) * g
            p.data -= (self.lr * (m / bc1)) / (np.sqrt(v / bc2) + EPS)
