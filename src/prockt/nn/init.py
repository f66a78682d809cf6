"""Parameter initialization helpers.

Weight matrices use uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)); biases and
other accumulators start at zero. Each parameter draws from its own rng
derived from (seed, name), so adding parameters to a model never shifts
the initialization of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .tensor import Tensor


def named_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def uniform_fan_in(seed: int, name: str, shape: tuple[int, ...], fan_in: int | None = None) -> Tensor:
    if fan_in is None:
        fan_in = shape[0]
    bound = 1.0 / np.sqrt(fan_in)
    rng = named_rng(seed, name)
    data = rng.uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True)


def zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)
