"""Dense tensors with reverse-mode automatic differentiation.

Every differentiable op builds a node in an implicit computation graph;
``Tensor.backward()`` topologically sorts the graph and accumulates
gradients into every ``requires_grad`` leaf. All math is numpy float64.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None, op=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self._op = op

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``fresh`` says the caller has just allocated ``grad`` and hands it
        over: no other node holds it, so a first gradient keeps it without
        a copy. A ``grad`` that may be shared or be a view is copied, because
        ``slice_`` backward later adds into ``self.grad`` in place.
        """
        if self.grad is None:
            self.grad = (np.asarray(grad, dtype=self.data.dtype) if fresh
                         else np.array(grad, dtype=self.data.dtype, copy=True))
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Populate ``grad`` on every reachable ``requires_grad`` tensor.

        Only defined for scalar outputs; repeated calls accumulate.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data), fresh=True)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
        # intermediate grads are only needed during the sweep
        for node in topo:
            if node is not self and not node.requires_grad and node._parents:
                node.grad = None

    def __getitem__(self, key):
        return slice_(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _make(data, parents, backward_fn, op):
    req = any(p.requires_grad or p._parents for p in parents)
    return Tensor(data, parents=parents if req else (),
                  backward_fn=backward_fn if req else None, op=op)


# -- elementwise / structural ops ----------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def backward_fn(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward_fn, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def backward_fn(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape), fresh=True)
        b._accumulate(_unbroadcast(g * a.data, b.shape), fresh=True)

    return _make(out_data, (a, b), backward_fn, "mul")


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's broadcasting rules.

    An N-D ``a`` times a 2-D ``b`` (a dense layer) runs as one 2-D GEMM in
    every direction: ``a`` is viewed as ``(-1, k)``, so the weight gradient
    is one ``a2.T @ g2`` rather than a stacked product summed over the
    leading axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim >= 2 and b.data.ndim == 2:
        k, n = b.shape
        if a.shape[-1] != k:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        a2 = a.data.reshape(-1, k)

        def backward_fn(g):
            g2 = g.reshape(-1, n)
            a._accumulate((g2 @ b.data.T).reshape(a.shape), fresh=True)
            b._accumulate(a2.T @ g2, fresh=True)

        return _make((a2 @ b.data).reshape(*a.shape[:-1], n), (a, b), backward_fn, "matmul")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.shape), fresh=True)
        b._accumulate(_unbroadcast(gb, b.shape), fresh=True)

    return _make(out_data, (a, b), backward_fn, "matmul")


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    out_data = a.data ** p

    def backward_fn(g):
        a._accumulate(g * p * a.data ** (p - 1), fresh=True)

    return _make(out_data, (a,), backward_fn, "power")


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward_fn(g):
        a._accumulate(g / a.data, fresh=True)

    return _make(out_data, (a,), backward_fn, "log")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward_fn(g):
        a._accumulate(g * out_data, fresh=True)

    return _make(out_data, (a,), backward_fn, "exp")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward_fn(g):
        a._accumulate(g * out_data * (1.0 - out_data), fresh=True)

    return _make(out_data, (a,), backward_fn, "sigmoid")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward_fn(g):
        a._accumulate(g * (1.0 - out_data * out_data), fresh=True)

    return _make(out_data, (a,), backward_fn, "tanh")


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        a._accumulate(g * (a.data > 0.0), fresh=True)

    return _make(out_data, (a,), backward_fn, "relu")


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is zero outside the interval."""
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward_fn(g):
        a._accumulate(g * inside, fresh=True)

    return _make(out_data, (a,), backward_fn, "clamp")


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        a._accumulate(out_data * (g - dot), fresh=True)

    return _make(out_data, (a,), backward_fn, "softmax")


def dropout(a, rate: float, rng: np.random.Generator | None = None, training: bool = True,
            draw_shape: tuple[int, ...] | None = None) -> Tensor:
    """Inverted dropout: kept activations scaled by 1/(1-rate); identity in eval.

    With ``draw_shape`` (no smaller than ``a`` on any axis) the uniform draws
    are made at that shape and their leading corner masks ``a``: ``rng``
    advances as for a tensor of ``draw_shape``, and ``a`` gets the mask that
    tensor would get on that corner.
    """
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    draw_shape = a.shape if draw_shape is None else tuple(draw_shape)
    if len(draw_shape) != a.data.ndim or any(n < m for n, m in zip(draw_shape, a.shape)):
        raise ShapeError(f"dropout: draw shape {draw_shape} does not cover {a.shape}")
    corner = tuple(slice(m) for m in a.shape)
    keep = (rng.random(draw_shape)[corner] >= rate).astype(a.data.dtype)
    scale = 1.0 / (1.0 - rate)
    mask = keep * scale
    out_data = a.data * mask

    def backward_fn(g):
        a._accumulate(g * mask, fresh=True)

    return _make(out_data, (a,), backward_fn, "dropout")


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _make(out_data, (a,), backward_fn, "sum")


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    denom = a.size if axis is None else a.shape[axis]

    def backward_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / denom, fresh=True)

    return _make(out_data, (a,), backward_fn, "mean")


def masked_mean(a, mask) -> Tensor:
    """Mean of ``a`` over positions where ``mask`` is nonzero.

    Returns 0 when the mask is empty (denominator floored at 1).
    """
    a = as_tensor(a)
    m = np.asarray(mask, dtype=a.data.dtype)
    if m.shape != a.shape:
        raise ShapeError(f"masked_mean: mask shape {m.shape} != value shape {a.shape}")
    denom = max(float(m.sum()), 1.0)
    out_data = np.array((a.data * m).sum() / denom)

    def backward_fn(g):
        a._accumulate(g * m / denom, fresh=True)

    return _make(out_data, (a,), backward_fn, "masked_mean")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)
    orig = a.shape

    def backward_fn(g):
        a._accumulate(g.reshape(orig))

    return _make(out_data, (a,), backward_fn, "reshape")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.transpose(axes)
    inv = np.argsort(axes)

    def backward_fn(g):
        a._accumulate(g.transpose(inv))

    return _make(out_data, (a,), backward_fn, "transpose")


def slice_(a, key) -> Tensor:
    """Basic (view-style) indexing; gradient scatters back into place."""
    a = as_tensor(a)
    out_data = a.data[key]

    def backward_fn(g):
        # a.grad is always an array owned by a, so adding in place is safe
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return _make(out_data, (a,), backward_fn, "slice")


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        # the pieces are disjoint views of g, which this node never reads again
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece, fresh=True)

    return _make(out_data, tuple(tensors), backward_fn, "concat")


def embedding_lookup(table, indices) -> Tensor:
    """Gather rows of a (vocab, dim) table; gradient scatter-adds."""
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    out_data = table.data[idx]

    def backward_fn(g):
        vocab, dim = table.shape
        # one flat bin per table cell; bincount adds in input order, as np.add.at does
        keys = idx.reshape(-1, 1) * dim + np.arange(dim)
        full = np.bincount(keys.ravel(), weights=g.reshape(-1), minlength=vocab * dim)
        table._accumulate(full.reshape(vocab, dim), fresh=True)

    return _make(out_data, (table,), backward_fn, "embedding_lookup")


def lstm(xw, wh, b) -> Tensor:
    """Single-layer LSTM over a (B, T, 4d) input projection; returns (B, T, d).

    Gates are laid out [input, forget, cell, output] along the last axis and
    the state starts at zero. The forward does the float operations of the
    per-step ``add``/``matmul``/``sigmoid``/``tanh``/``mul`` graph in the same
    order, so its output matches that graph bit for bit. Backward is
    hand-written BPTT.
    """
    xw, wh, b = as_tensor(xw), as_tensor(wh), as_tensor(b)
    B, T, four_d = xw.shape
    d = four_d // 4
    if four_d != 4 * d or wh.shape != (d, four_d) or b.shape != (four_d,):
        raise ShapeError(f"lstm: incompatible shapes {xw.shape}, {wh.shape}, {b.shape}")
    acts = np.empty((4, B, T, d))  # i, f, o after sigmoid, g after tanh
    cs = np.empty((B, T, d))
    tcs = np.empty((B, T, d))
    hs = np.empty((B, T, d))
    h = np.zeros((B, d))
    c = np.zeros((B, d))
    for t in range(T):
        gates = (xw.data[:, t, :] + np.matmul(h, wh.data)) + b.data
        i = 1.0 / (1.0 + np.exp(-gates[:, :d]))
        f = 1.0 / (1.0 + np.exp(-gates[:, d:2 * d]))
        g = np.tanh(gates[:, 2 * d:3 * d])
        o = 1.0 / (1.0 + np.exp(-gates[:, 3 * d:]))
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        acts[:, :, t] = i, f, g, o
        cs[:, t], tcs[:, t], hs[:, t] = c, tc, h

    def backward_fn(grad):
        dgates = np.empty_like(xw.data)
        da = np.empty((B, four_d))
        dh_next = np.zeros((B, d))
        dc_next = np.zeros((B, d))
        for t in reversed(range(T)):
            i, f, g, o = acts[:, :, t]
            dh = grad[:, t] + dh_next
            dc = dc_next + dh * o * (1.0 - tcs[:, t] * tcs[:, t])
            c_prev = cs[:, t - 1] if t else np.zeros((B, d))
            da[:, :d] = dc * g * i * (1.0 - i)
            da[:, d:2 * d] = dc * c_prev * f * (1.0 - f)
            da[:, 2 * d:3 * d] = dc * i * (1.0 - g * g)
            da[:, 3 * d:] = dh * tcs[:, t] * o * (1.0 - o)
            dgates[:, t] = da
            dc_next = dc * f
            if t:
                dh_next = np.matmul(da, wh.data.T)
        xw._accumulate(dgates, fresh=True)
        # step 0 saw h = 0, so it adds nothing to dwh
        wh._accumulate(hs[:, :-1].reshape(-1, d).T @ dgates[:, 1:].reshape(-1, four_d),
                       fresh=True)
        b._accumulate(dgates.sum(axis=(0, 1)), fresh=True)

    return _make(hs, (xw, wh, b), backward_fn, "lstm")
