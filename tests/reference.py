"""Unfused reference graphs that the fused ops are tested against.

The ops here are the autodiff primitives the models no longer call: the
elementwise, reduction and reshaping ops, the stacked branch of ``matmul``,
and ``dropout`` drawing its own mask. With them,
``layer_norm`` and ``unfused_attention_forward`` build the attention block
node by node, as ``AttentionKT.forward`` did before ``nn.layer_norm`` and
``nn.attention`` replaced it.
"""

from __future__ import annotations

import numpy as np

from prockt import nn
from prockt.nn.tensor import ShapeError, _make, _unbroadcast, as_tensor

LAYER_NORM_EPS = 1e-5
MASK_FILL = -1e9


def stacked_matmul(a, b) -> nn.Tensor:
    """Matrix product of stacked matrices, with numpy's broadcasting rules."""
    a, b = as_tensor(a), as_tensor(b)
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


def power(a, p: float) -> nn.Tensor:
    a = as_tensor(a)
    out_data = a.data ** p

    def backward_fn(g):
        a._accumulate(g * p * a.data ** (p - 1), fresh=True)

    return _make(out_data, (a,), backward_fn, "power")


def tanh(a) -> nn.Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward_fn(g):
        a._accumulate(g * (1.0 - out_data * out_data), fresh=True)

    return _make(out_data, (a,), backward_fn, "tanh")


def softmax(a) -> nn.Tensor:
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
            draw_shape: tuple[int, ...] | None = None) -> nn.Tensor:
    """Inverted dropout: kept activations scaled by 1/(1-rate); identity in eval.

    With ``draw_shape`` the uniform draws are made at that shape and their
    leading corner masks ``a``.
    """
    a = as_tensor(a)
    if not training or rate == 0.0:
        return a
    draw_shape = a.shape if draw_shape is None else tuple(draw_shape)
    corner = tuple(slice(m) for m in a.shape)
    keep = (rng.random(draw_shape)[corner] >= rate).astype(a.data.dtype)
    scale = 1.0 / (1.0 - rate)
    mask = keep * scale
    out_data = a.data * mask

    def backward_fn(g):
        a._accumulate(g * mask, fresh=True)

    return _make(out_data, (a,), backward_fn, "dropout")


def sum_(a, axis=None, keepdims=False) -> nn.Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _make(out_data, (a,), backward_fn, "sum")


def mean(a, axis=None, keepdims=False) -> nn.Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    denom = a.size if axis is None else a.shape[axis]

    def backward_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / denom, fresh=True)

    return _make(out_data, (a,), backward_fn, "mean")


def reshape(a, shape) -> nn.Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)
    orig = a.shape

    def backward_fn(g):
        a._accumulate(g.reshape(orig))

    return _make(out_data, (a,), backward_fn, "reshape")


def transpose(a, axes) -> nn.Tensor:
    a = as_tensor(a)
    out_data = a.data.transpose(axes)
    inv = np.argsort(axes)

    def backward_fn(g):
        a._accumulate(g.transpose(inv))

    return _make(out_data, (a,), backward_fn, "transpose")


def layer_norm(x, gain, bias) -> nn.Tensor:
    mu = mean(x, axis=-1, keepdims=True)
    centered = nn.add(x, nn.mul(mu, -1.0))
    var = mean(nn.mul(centered, centered), axis=-1, keepdims=True)
    inv = power(nn.add(var, LAYER_NORM_EPS), -0.5)
    return nn.add(nn.mul(nn.mul(centered, inv), gain), bias)


def model_dropout(model, x, training, rng) -> nn.Tensor:
    """Dropout with the mask drawn at the shape padded to ``max_len``."""
    L = model.config.max_len
    if x.data.ndim == 3:
        draw_shape = (x.shape[0], L, x.shape[2])
    else:
        draw_shape = (*x.shape[:2], L, L)
    return dropout(x, model.config.dropout, rng=rng, training=training, draw_shape=draw_shape)


def unfused_attention_forward(model, batch, training=False, rng=None):
    """``AttentionKT.forward`` with the attention block built node by node."""
    cfg = model.config
    params = model.params
    B, T = batch.question_ids.shape

    def split_heads(x):
        return transpose(reshape(x, (B, T, cfg.attention_heads, cfg.head_dim)), (0, 2, 1, 3))

    pos = nn.embedding_lookup(params["embed.position"], np.broadcast_to(np.arange(T), (B, T)))
    x = nn.add(model.interaction_embedding(batch), pos)
    x = model_dropout(model, x, training, rng)
    next_q = model.next_question_embedding(batch)

    q = split_heads(nn.matmul(next_q, params["attn.wq"]))
    k = split_heads(nn.matmul(x, params["attn.wk"]))
    v = split_heads(nn.matmul(x, params["attn.wv"]))

    scores = nn.mul(stacked_matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(cfg.head_dim))
    causal = np.tril(np.ones((T, T), dtype=bool))
    key_valid = batch.valid_mask.astype(bool)[:, None, None, :]
    allowed = causal[None, None, :, :] & key_valid
    bias = np.where(allowed, 0.0, MASK_FILL)
    weights = softmax(nn.add(scores, bias))
    weights = model_dropout(model, weights, training, rng)

    ctx = stacked_matmul(weights, v)  # (B, h, T, dh)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (B, T, cfg.embed_dim))
    ctx = nn.matmul(ctx, params["attn.wo"])

    h1 = layer_norm(nn.add(ctx, next_q), params["ln1.gain"], params["ln1.bias"])
    f = nn.add(nn.matmul(nn.relu(nn.add(nn.matmul(h1, params["ffn.w1"]), params["ffn.b1"])),
                         params["ffn.w2"]),
               params["ffn.b2"])
    f = model_dropout(model, f, training, rng)
    state = layer_norm(nn.add(f, h1), params["ln2.gain"], params["ln2.bias"])
    return model.readout(state, next_q)
