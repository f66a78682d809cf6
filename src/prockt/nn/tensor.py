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
        The sweep frees no node: a graph lives as long as its output is
        referenced, and ``train`` drops each step's graph before the next
        forward, so a run's training peak is one graph.
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _bias_grad(grad: np.ndarray) -> np.ndarray:
    """The gradient of a (k,) bias broadcast along ``grad``'s leading axes:
    ``grad`` summed over its first axis until one axis is left."""
    while grad.ndim > 1:
        grad = grad.sum(axis=0)
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


def _dropped(op: str, value: np.ndarray, mask: np.ndarray | None, out=None) -> np.ndarray:
    """``value`` times the dropout ``mask``, into ``out``; ``value`` itself if
    ``mask`` is None (no dropout). The mask must have the value's shape."""
    if mask is None:
        return value
    if mask.shape != value.shape:
        raise ShapeError(f"{op}: dropout mask shape {mask.shape} != output shape {value.shape}")
    return np.multiply(value, mask, out=out)


# -- ops ------------------------------------------------------------------


def embed(terms, mask: np.ndarray | None = None) -> Tensor:
    """The sum of ``terms``, added left to right into one buffer, times the
    dropout ``mask`` (None for no dropout), as one node.

    A term is a ``(table, ids)`` pair, the rows of a (vocab, d) table at an
    index array, or an ``(x, w, b)`` triple, ``x @ w + b`` for a data array
    ``x`` of shape (*ids.shape, k), a (k, d) ``w`` and a (d,) ``b``; ``x``
    gets no gradient. In that order the output has the bits of the
    ``embedding_lookup``, ``matmul`` and ``add`` graph in
    ``tests/reference.py``, then its ``dropout``. Each term gets the output's
    gradient times the mask: a table's is a sparse scatter of it, a dense
    term's the products of ``matmul`` and ``add``.
    """
    lookups, denses, out = [], [], None
    for term in terms:
        if len(term) == 2:
            table, idx = as_tensor(term[0]), np.asarray(term[1], dtype=np.int64)
            if table.data.ndim != 2:
                raise ShapeError(f"embed: a table must be 2-d, got {table.shape}")
            lookups.append((table, idx))
            value = table.data[idx]
        else:
            x, w, b = np.asarray(term[0], dtype=np.float64), as_tensor(term[1]), as_tensor(term[2])
            if w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
                raise ShapeError(f"embed: incompatible dense shapes {x.shape}, {w.shape}, "
                                 f"{b.shape}")
            x2 = x.reshape(-1, w.shape[0])
            denses.append((x2, w, b))
            value = (x2 @ w.data).reshape(*x.shape[:-1], w.shape[1])
            value += b.data
        if out is None:
            out = value
        elif value.shape != out.shape:
            raise ShapeError(f"embed: a term of shape {value.shape} added to {out.shape}")
        else:
            out += value
    out = _dropped("embed", out, mask, out=out)
    d = out.shape[-1]

    def backward_fn(g):
        g = g if mask is None else g * mask
        g2 = g.reshape(-1, d)
        for table, idx in lookups:
            # a (vocab, N) 0/1 matrix with a 1 at each (id, position) pair: the
            # conversion to CSR keeps each row's positions in order, so each
            # table row sums its gradient rows in input order, as np.add.at
            # does, and the sums have the same bits
            flat = idx.reshape(-1)
            scatter = scipy.sparse.csr_matrix(
                (np.ones(flat.size), (flat, np.arange(flat.size))),
                shape=(table.shape[0], flat.size))
            table._accumulate(scatter @ g2)
        for x2, w, b in denses:
            w._accumulate(x2.T @ g2)
            b._accumulate(_bias_grad(g))

    params = [t for t, _ in lookups] + [p for _, w, b in denses for p in (w, b)]
    return _make(out, tuple(params), backward_fn, "embed")


def lstm(x, wx, wh, b, mask: np.ndarray | None = None) -> Tensor:
    """Single-layer LSTM over (B, T, k) inputs ``x`` with its input projection
    ``x @ wx`` (``wx`` is (k, 4d), one GEMM for all steps); returns the
    (B, T, d) hidden states times the dropout ``mask`` (None for no dropout).

    Gates are laid out [input, forget, cell, output] along the last axis and
    the state starts at zero. The forward does the float operations of the
    ``matmul`` and per-step ``add``/``matmul``/``sigmoid``/``tanh``/``mul``
    graph in ``tests/reference.py`` in the same order, so its output matches
    that graph bit for bit. Every step writes with ``out=`` into buffers made
    once per call: its gate activations fill one contiguous (B, 4d) row of a
    time-major (T, B, 4d) array, where one sigmoid covers the whole row and
    tanh then overwrites the cell-gate slot; c, tanh(c) and h fill (B, T, d)
    arrays. Backward is hand-written BPTT that writes each step's gate
    gradients into its slice of one (B, T, 4d) array, the projection's
    output gradient. It reads the undropped states: a mask makes a new output.
    """
    x, wx, wh, b = (as_tensor(t) for t in (x, wx, wh, b))
    (B, T, k), four_d = x.shape, wx.shape[-1]
    d = four_d // 4
    if wx.shape != (k, 4 * d) or wh.shape != (d, 4 * d) or b.shape != (4 * d,):
        raise ShapeError(f"lstm: incompatible shapes {x.shape}, {wx.shape}, {wh.shape}, {b.shape}")
    x2 = x.data.reshape(-1, k)
    xw = (x2 @ wx.data).reshape(B, T, four_d)  # the input contribution for all steps at once
    acts = np.empty((T, B, four_d))  # i, f, o after sigmoid, g after tanh
    cs = np.empty((B, T, d))
    tcs = np.empty((B, T, d))
    hs = np.empty((B, T, d))
    zeros = np.zeros((B, d))
    # h_{t-1} @ wh runs on at least two rows: a one-row GEMM rounds otherwise,
    # so a window would be predicted with other bits alone than in a batch
    h_prev = np.zeros((max(B, 2), d))
    pre_rows = np.empty((max(B, 2), four_d))
    pre = pre_rows[:B]
    ig = np.empty((B, d))
    cell = slice(2 * d, 3 * d)

    def gates(t):
        a = acts[t]
        return a[:, :d], a[:, d:2 * d], a[:, cell], a[:, 3 * d:]

    for t in range(T):
        if t:
            h_prev[:B] = hs[:, t - 1]
        # (h @ wh + xw_t) + b has the bits of (xw_t + h @ wh) + b
        np.matmul(h_prev, wh.data, out=pre_rows)
        pre += xw[:, t]
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
        grad = grad if mask is None else grad * mask
        dgates = np.empty((B, T, four_d))
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
        g2 = dgates.reshape(-1, four_d)
        x._accumulate((g2 @ wx.data.T).reshape(x.shape))
        wx._accumulate(x2.T @ g2)
        # step 0 saw h = 0, so it adds nothing to dwh
        wh._accumulate(hs[:, :-1].reshape(-1, d).T @ dgates[:, 1:].reshape(-1, four_d))
        b._accumulate(dgates.sum(axis=(0, 1)))

    return _make(_dropped("lstm", hs, mask), (x, wx, wh, b), backward_fn, "lstm")


def layer_norm(x, residual, gain, bias, eps: float) -> Tensor:
    """Normalize ``x + residual`` over its last axis, then scale by ``gain``
    and shift by ``bias``: a Transformer's Add & Norm.

    The forward does the float operations of the ``add`` and node-by-node
    graph in ``tests/reference.py`` in the same order, so its output matches
    that graph bit for bit. Backward is the closed form of Ba et al. (2016);
    ``x`` and ``residual`` share one gradient. Forward and backward each write
    into two (..., d) buffers: the forward keeps x̂ in one and returns the other.
    """
    x, residual, gain, bias = (as_tensor(t) for t in (x, residual, gain, bias))
    d = x.shape[-1]
    if residual.shape != x.shape or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: incompatible shapes {x.shape}, {residual.shape}, "
                         f"{gain.shape}, {bias.shape}")
    xhat = x.data + residual.data  # the sum, centred, then x̂
    xhat += xhat.mean(axis=-1, keepdims=True) * -1.0
    out = np.multiply(xhat, xhat)
    inv = (out.mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def backward_fn(g):
        dx = g * gain.data  # dx̂, then dx
        tmp = dx * xhat
        dot = tmp.mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, dot, out=tmp)
        dx *= inv
        x._accumulate(dx)
        residual._accumulate(dx)
        gain._accumulate(np.multiply(g, xhat, out=tmp).reshape(-1, d).sum(axis=0))
        bias._accumulate(g.reshape(-1, d).sum(axis=0))

    return _make(out, (x, residual, gain, bias), backward_fn, "layer_norm")


def feed_forward(x, w1, b1, w2, b2, mask: np.ndarray | None = None) -> Tensor:
    """The position-wise block ``relu(x @ w1 + b1) @ w2 + b2`` times the
    dropout ``mask`` (None for no dropout), as one node.

    Each GEMM output takes its bias, the first its relu and the second the
    mask, in place. The float operations are those of the ``matmul``/``add``/
    ``relu``/``dropout`` graph in ``tests/reference.py``, in the same order,
    so the output and every gradient match that graph bit for bit.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    d = x.shape[-1]
    if (x.data.ndim < 2 or w1.data.ndim != 2 or w1.shape[0] != d
            or b1.shape != w1.shape[1:] or w2.shape != (*b1.shape, d) or b2.shape != (d,)):
        raise ShapeError(f"feed_forward: incompatible shapes {x.shape}, {w1.shape}, "
                         f"{b1.shape}, {w2.shape}, {b2.shape}")
    x2 = x.data.reshape(-1, d)
    h = x2 @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = (h @ w2.data).reshape(x.shape)
    out += b2.data
    out = _dropped("feed_forward", out, mask, out=out)

    def backward_fn(g):
        g = g if mask is None else g * mask
        g2 = g.reshape(-1, d)
        dh = g2 @ w2.data.T
        dh *= h > 0.0
        b2._accumulate(_bias_grad(g))
        w2._accumulate(h.T @ g2)
        b1._accumulate(_bias_grad(dh.reshape(*x.shape[:-1], -1)))
        x._accumulate((dh @ w1.data.T).reshape(x.shape))
        w1._accumulate(x2.T @ dh)

    return _make(out, (x, w1, b1, w2, b2), backward_fn, "feed_forward")


def attention(query, keys, wq, wk, wv, wo, key_valid: np.ndarray, heads: int,
              mask: np.ndarray | None) -> Tensor:
    """One causal multi-head attention block over (B, T, d) ``query`` and ``keys``.

    q = query·wq, k = keys·wk and v = keys·wv (each weight (d, d)) are split
    into ``heads`` heads. Scores q·kᵀ/√dh get −1e9 added where the key is
    later than the query or false in the (B, T) ``key_valid``; their softmax
    times the dropout ``mask`` (None for none) weights v, and the merged heads
    are projected by ``wo``. The forward does the float operations of the
    graph in ``tests/reference.py`` in the same order, so its output matches
    that graph bit for bit. Backward goes through the softmax as
    dS = P∘(dP − rowsum(dP∘P)) (Dao et al., 2022), takes each projection's
    backward as soon as its head's gradient is formed, drops dS before the
    value product, and sums the k and v parts of ``keys``' gradient in place.

    One (B, heads, T, T) buffer holds the scores and then, in place, the
    probabilities; backward likewise turns one dP buffer into dS. The
    softmax takes exp only where the shifted score is not below −746, and
    writes +0.0 elsewhere. exp of any float below about −745.13 rounds to
    exactly +0.0, so the bits are those of a plain exp, while the hidden
    keys, shifted to about −1e9, skip exp's slow path for huge negative
    arguments. The test is negated, so a NaN is not taken for an underflow:
    it goes through exp and the division as NaN, not as a 0/0.
    """
    query, keys, wq, wk, wv, wo = (as_tensor(t) for t in (query, keys, wq, wk, wv, wo))
    key_valid = np.asarray(key_valid, dtype=bool)
    B, T, d = query.shape
    dh = d // heads
    if (keys.shape != query.shape or dh * heads != d or key_valid.shape != (B, T)
            or any(w.shape != (d, d) for w in (wq, wk, wv, wo))):
        raise ShapeError(f"attention: incompatible shapes {query.shape}, {keys.shape}, "
                         f"{[w.shape for w in (wq, wk, wv, wo)]}, {key_valid.shape}, {heads} heads")

    def split(t):  # (B·T, d) -> (B, heads, T, dh)
        return t.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # (B, heads, T, dh) -> (B·T, d)
        return t.transpose(0, 2, 1, 3).reshape(-1, d)

    query2, keys2 = query.data.reshape(-1, d), keys.data.reshape(-1, d)
    qh, kh, vh = split(query2 @ wq.data), split(keys2 @ wk.data), split(keys2 @ wv.data)
    scale = 1.0 / np.sqrt(dh)
    probs = np.matmul(qh, kh.transpose(0, 1, 3, 2))  # the scores, then their softmax
    probs *= scale
    causal = np.tril(np.ones((T, T), dtype=bool))
    probs += np.where(causal[None, None, :, :] & key_valid[:, None, None, :], 0.0, -1e9)
    probs -= probs.max(axis=-1, keepdims=True)
    underflow = probs < -746.0
    np.exp(probs, out=probs, where=~underflow)
    np.copyto(probs, 0.0, where=underflow)
    probs /= probs.sum(axis=-1, keepdims=True)
    weights = _dropped("attention", probs, mask)
    ctx2 = merge(np.matmul(weights, vh))

    def project_back(g2, x2, w):  # x2 @ w's backward in matmul's order: x2's gradient, then w's
        dx2 = g2 @ w.data.T
        w._accumulate(x2.T @ g2)
        return dx2

    def backward_fn(g):
        gh = split(project_back(g.reshape(-1, d), ctx2, wo))
        ds = np.matmul(gh, vh.transpose(0, 1, 3, 2))  # dP, then dS
        if mask is not None:
            ds *= mask
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds *= scale
        query._accumulate(project_back(merge(np.matmul(ds, kh)), query2, wq).reshape(B, T, d))
        dkeys = project_back(merge(np.matmul(ds.transpose(0, 1, 3, 2), qh)), keys2, wk)
        del ds
        dkeys += project_back(merge(np.matmul(weights.transpose(0, 1, 3, 2), gh)), keys2, wv)
        keys._accumulate(dkeys.reshape(B, T, d))

    return _make((ctx2 @ wo.data).reshape(B, T, d), (query, keys, wq, wk, wv, wo), backward_fn,
                 "attention")


def readout(state, next_q, w, b, limit: float) -> Tensor:
    """Linear heads on ``[state | next_q]``: sigmoid of the logits clipped to ±``limit``.

    ``w`` is (n, k), n the width of ``state`` plus that of ``next_q``, and ``b``
    is (k,); head j is column j of ``w``, of ``b`` and of the output. Forward and
    backward do the float operations of the ``concat``/``matmul``/``add``/
    ``clamp``/``sigmoid`` graph in ``tests/reference.py`` in the same order, so
    both match that graph bit for bit.
    """
    state, next_q, w, b = as_tensor(state), as_tensor(next_q), as_tensor(w), as_tensor(b)
    z = np.concatenate([state.data, next_q.data], axis=-1)
    if w.data.ndim != 2 or w.shape[0] != z.shape[-1] or b.shape != w.shape[1:]:
        raise ShapeError(f"readout: incompatible shapes {z.shape}, {w.shape}, {b.shape}")
    n, k = w.shape
    z2 = z.reshape(-1, n)
    logits = (z2 @ w.data).reshape(*z.shape[:-1], k) + b.data
    inside = (logits >= -limit) & (logits <= limit)
    probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -limit, limit)))

    def backward_fn(g):
        g = g * probs * (1.0 - probs) * inside
        g2 = g.reshape(-1, k)
        dz = (g2 @ w.data.T).reshape(z.shape)
        state._accumulate(dz[..., :state.shape[-1]])
        next_q._accumulate(dz[..., state.shape[-1]:])
        w._accumulate(z2.T @ g2)
        b._accumulate(_bias_grad(g))

    return _make(probs, (state, next_q, w, b), backward_fn, "readout")
