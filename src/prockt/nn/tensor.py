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
    """Dense layer: an N-D ``a`` (N >= 2) times a 2-D ``b``.

    It runs as one 2-D GEMM in every direction: ``a`` is viewed as
    ``(-1, k)``, so the weight gradient is one ``a2.T @ g2`` rather than a
    stacked product summed over the leading axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    k, n = b.shape
    a2 = a.data.reshape(-1, k)

    def backward_fn(g):
        g2 = g.reshape(-1, n)
        a._accumulate((g2 @ b.data.T).reshape(a.shape), fresh=True)
        b._accumulate(a2.T @ g2, fresh=True)

    return _make((a2 @ b.data).reshape(*a.shape[:-1], n), (a, b), backward_fn, "matmul")


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward_fn(g):
        a._accumulate(g / a.data, fresh=True)

    return _make(out_data, (a,), backward_fn, "log")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward_fn(g):
        a._accumulate(g * out_data * (1.0 - out_data), fresh=True)

    return _make(out_data, (a,), backward_fn, "sigmoid")


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


def dropout(a, mask: np.ndarray | None) -> Tensor:
    """``a`` times a dropout multiplier (0 where dropped, 1/(1-rate) where kept).

    A ``mask`` of None (eval mode, or a zero rate) returns ``a`` itself.
    """
    a = as_tensor(a)
    if mask is None:
        return a
    if mask.shape != a.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != value shape {a.shape}")
    out_data = a.data * mask

    def backward_fn(g):
        a._accumulate(g * mask, fresh=True)

    return _make(out_data, (a,), backward_fn, "dropout")


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


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Normalize ``x`` over its last axis, then scale by ``gain`` and shift by ``bias``.

    The forward does the float operations of the node-by-node graph in
    ``tests/reference.py`` in the same order, so its output matches that
    graph bit for bit. Backward is the closed form of Ba et al. (2016).
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: incompatible shapes {x.shape}, {gain.shape}, {bias.shape}")
    centered = x.data + x.data.mean(axis=-1, keepdims=True) * -1.0
    inv = ((centered * centered).mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat = centered * inv

    def backward_fn(g):
        dxhat = g * gain.data
        x._accumulate(inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                             - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)), fresh=True)
        gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0), fresh=True)
        bias._accumulate(g.reshape(-1, d).sum(axis=0), fresh=True)

    return _make(xhat * gain.data + bias.data, (x, gain, bias), backward_fn, "layer_norm")


def attention(q, k, v, bias: np.ndarray, heads: int, mask: np.ndarray | None) -> Tensor:
    """Multi-head scaled dot-product attention over (B, T, d) queries, keys and values.

    Each of ``heads`` heads takes d/heads of the features. Scores are
    q·kᵀ/√dh plus the additive ``bias`` (broadcast to (B, heads, T, T), hugely
    negative where a key is hidden); their softmax is multiplied by the
    dropout ``mask`` (None for no dropout) and applied to ``v``, and the heads
    are merged back into (B, T, d). The forward does the float operations of
    the node-by-node graph in ``tests/reference.py`` in the same order, so its
    output matches that graph bit for bit. Backward goes through the softmax
    as dS = P∘(dP − rowsum(dP∘P)) (Dao et al., 2022).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    B, T, d = q.shape
    dh = d // heads
    if k.shape != q.shape or v.shape != q.shape or dh * heads != d:
        raise ShapeError(f"attention: incompatible shapes {q.shape}, {k.shape}, {v.shape} "
                         f"for {heads} heads")

    def split(t):  # (B, T, d) -> (B, heads, T, dh)
        return t.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # (B, heads, T, dh) -> (B, T, d)
        return t.transpose(0, 2, 1, 3).reshape(B, T, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(dh)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    weights = probs if mask is None else probs * mask

    def backward_fn(g):
        gh = split(g)
        dprobs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        if mask is not None:
            dprobs = dprobs * mask
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * scale
        q._accumulate(merge(np.matmul(dscores, kh)), fresh=True)
        k._accumulate(merge(np.matmul(dscores.transpose(0, 1, 3, 2), qh)), fresh=True)
        v._accumulate(merge(np.matmul(weights.transpose(0, 1, 3, 2), gh)), fresh=True)

    return _make(merge(np.matmul(weights, vh)), (q, k, v), backward_fn, "attention")
