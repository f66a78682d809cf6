"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
CHUNK = 16_384  # floats per scratch buffer: 128 KB, so both buffers stay in cache


class Adam:
    """Standard Adam with bias correction (BETA1, BETA2 and EPS above).

    A step updates ``m``, ``v`` and each parameter in place, ``CHUNK``
    elements at a time through two scratch buffers, so it allocates no
    parameter-sized temporaries. Each element takes the float operations of
    the textbook expressions, operands in the same order.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self._scratch = np.empty((2, CHUNK))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if not p.data.flags.c_contiguous:
                raise ValueError(f"Adam: parameter {name} is not C-contiguous")
            data, m, v, g = (x.reshape(-1) for x in (p.data, self.m[name], self.v[name], p.grad))
            for i in range(0, data.size, CHUNK):
                end = i + CHUNK
                pc, mc, vc, gc = data[i:end], m[i:end], v[i:end], g[i:end]
                a, b = self._scratch[0, :gc.size], self._scratch[1, :gc.size]
                mc *= BETA1
                mc += np.multiply(1.0 - BETA1, gc, out=a)         # m += (1 - b1) * g
                vc *= BETA2
                np.multiply(1.0 - BETA2, gc, out=a)
                vc += np.multiply(a, gc, out=a)                   # v += (1 - b2) * g * g
                np.divide(mc, bc1, out=a)                         # m_hat
                np.multiply(self.lr, a, out=a)                    # lr * m_hat
                np.sqrt(np.divide(vc, bc2, out=b), out=b)         # sqrt(v_hat)
                b += EPS
                pc -= np.divide(a, b, out=a)                      # p -= lr * m_hat / (... + eps)
