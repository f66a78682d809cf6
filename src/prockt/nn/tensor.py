"""Dense tensors with reverse-mode automatic differentiation.

Every differentiable op builds a node in an implicit computation graph;
``Tensor.backward()`` topologically sorts the graph and accumulates
gradients into every ``requires_grad`` leaf. Inside ``no_grad()`` no op
builds a node. All math is numpy float64.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse


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

    def _accumulate(self, grad: np.ndarray) -> None:
        """Store ``grad`` as ``self.grad``, or add it to the one already stored.

        The one rule of gradient ownership: no backward writes into an array
        once it has been handed to ``_accumulate``. So a gradient is stored as
        it comes, though another node may hold it too or it may be a view,
        and a sum is always a new array.
        """
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self) -> None:
        """Populate ``grad`` on every reachable ``requires_grad`` tensor.

        Only defined for scalar outputs. One sweep over the sorted graph runs
        each node's backward on the gradient it has gathered, and drops that
        gradient unless the node ``requires_grad``: each call adds one
        gradient into the parameters, and a second call starts again from 1.
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
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            grad = node.grad
            if not node.requires_grad:  # only parameters keep a gradient
                node.grad = None
            if node._backward_fn is not None and grad is not None:
                node._backward_fn(grad)

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


_grad_enabled = True


class no_grad:
    """A context within which every op's output is a constant: no parents,
    no backward. The switch is process-wide, so no other thread may build a
    graph meanwhile."""

    def __enter__(self):
        global _grad_enabled
        self._enabled, _grad_enabled = _grad_enabled, False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._enabled


def _make(data, parents, backward_fn, op):
    req = _grad_enabled and any(p.requires_grad or p._parents for p in parents)
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
        a._accumulate((g2 @ b.data.T).reshape(a.shape))
        b._accumulate(a2.T @ g2)

    return _make((a2 @ b.data).reshape(*a.shape[:-1], n), (a, b), backward_fn, "matmul")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward_fn(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward_fn, "sigmoid")


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        a._accumulate(g * (a.data > 0.0))

    return _make(out_data, (a,), backward_fn, "relu")


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is zero outside the interval."""
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward_fn(g):
        a._accumulate(g * inside)

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
        a._accumulate(g * mask)

    return _make(out_data, (a,), backward_fn, "dropout")


def slice_(a, key) -> Tensor:
    """Basic (view-style) indexing; gradient scatters back into place."""
    a = as_tensor(a)
    out_data = a.data[key]

    def backward_fn(g):
        scattered = np.zeros_like(a.data)
        scattered[key] += g
        a._accumulate(scattered)

    return _make(out_data, (a,), backward_fn, "slice")


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

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
        flat = idx.reshape(-1)
        # a (vocab, N) 0/1 matrix: each table row sums its gradient rows in
        # input order, as np.add.at does, so the sums have the same bits
        scatter = scipy.sparse.csr_matrix((np.ones(flat.size), (flat, np.arange(flat.size))),
                                          shape=(vocab, flat.size))
        table._accumulate(scatter @ g.reshape(-1, dim))

    return _make(out_data, (table,), backward_fn, "embedding_lookup")


def lstm(xw, wh, b) -> Tensor:
    """Single-layer LSTM over a (B, T, 4d) input projection; returns (B, T, d).

    Gates are laid out [input, forget, cell, output] along the last axis and
    the state starts at zero. The forward does the float operations of the
    per-step ``add``/``matmul``/``sigmoid``/``tanh``/``mul`` graph in the same
    order, so its output matches that graph bit for bit. Every step writes
    with ``out=`` into buffers made once per call: its gate activations fill
    one contiguous (B, 4d) row of a time-major (T, B, 4d) array, where one
    sigmoid covers the whole row and tanh then overwrites the cell-gate slot;
    c, tanh(c) and h fill (B, T, d) arrays. Backward is hand-written BPTT
    that writes each step's gate gradients into its slice of the (B, T, 4d)
    gradient of ``xw``.
    """
    xw, wh, b = as_tensor(xw), as_tensor(wh), as_tensor(b)
    B, T, four_d = xw.shape
    d = four_d // 4
    if four_d != 4 * d or wh.shape != (d, four_d) or b.shape != (four_d,):
        raise ShapeError(f"lstm: incompatible shapes {xw.shape}, {wh.shape}, {b.shape}")
    acts = np.empty((T, B, four_d))  # i, f, o after sigmoid, g after tanh
    cs = np.empty((B, T, d))
    tcs = np.empty((B, T, d))
    hs = np.empty((B, T, d))
    zeros = np.zeros((B, d))
    pre = np.empty((B, four_d))
    ig = np.empty((B, d))
    cell = slice(2 * d, 3 * d)

    def gates(t):
        a = acts[t]
        return a[:, :d], a[:, d:2 * d], a[:, cell], a[:, 3 * d:]

    for t in range(T):
        # (h @ wh + xw_t) + b has the bits of (xw_t + h @ wh) + b
        np.matmul(hs[:, t - 1] if t else zeros, wh.data, out=pre)
        pre += xw.data[:, t]
        pre += b.data
        a = acts[t]
        np.negative(pre, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        np.tanh(pre[:, cell], out=a[:, cell])
        i, f, g, o = gates(t)
        c = cs[:, t]
        np.multiply(f, cs[:, t - 1] if t else zeros, out=c)
        c += np.multiply(i, g, out=ig)
        np.tanh(c, out=tcs[:, t])
        np.multiply(o, tcs[:, t], out=hs[:, t])

    def backward_fn(grad):
        dgates = np.empty_like(xw.data)
        dh_next = dc_next = zeros
        for t in reversed(range(T)):
            i, f, g, o = gates(t)
            tc = tcs[:, t]
            da = dgates[:, t]
            dh = grad[:, t] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            c_prev = cs[:, t - 1] if t else zeros
            np.multiply(dc * g * i, 1.0 - i, out=da[:, :d])
            np.multiply(dc * c_prev * f, 1.0 - f, out=da[:, d:2 * d])
            np.multiply(dc * i, 1.0 - g * g, out=da[:, cell])
            np.multiply(dh * tc * o, 1.0 - o, out=da[:, 3 * d:])
            dc_next = dc * f
            if t:
                dh_next = np.matmul(da, wh.data.T)
        xw._accumulate(dgates)
        # step 0 saw h = 0, so it adds nothing to dwh
        wh._accumulate(hs[:, :-1].reshape(-1, d).T @ dgates[:, 1:].reshape(-1, four_d))
        b._accumulate(dgates.sum(axis=(0, 1)))

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
                             - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)))
        gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        bias._accumulate(g.reshape(-1, d).sum(axis=0))

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
        q._accumulate(merge(np.matmul(dscores, kh)))
        k._accumulate(merge(np.matmul(dscores.transpose(0, 1, 3, 2), qh)))
        v._accumulate(merge(np.matmul(weights.transpose(0, 1, 3, 2), gh)))

    return _make(merge(np.matmul(weights, vh)), (q, k, v), backward_fn, "attention")
