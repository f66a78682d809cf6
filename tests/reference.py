"""Unfused reference graphs that the fused ops are tested against.

The ops here are the autodiff primitives that no program calls any more:
the elementwise, reduction and reshaping ops, the stacked branch of
``matmul``, and ``dropout`` drawing its own mask. With them,
``composite_loss`` is the loss oracle: it builds the training objective
node by node from ``bce`` and one ``masked_mse`` per proficiency dimension,
as the training loop did before ``nn.composite_loss`` made it one node.
``layer_norm`` and ``unfused_attention_forward`` build the attention block
node by node, as ``AttentionKT.forward`` did before ``nn.layer_norm`` and
``nn.attention`` replaced it, and ``unrolled_lstm`` and
``unrolled_recurrent_forward`` build the LSTM step by step, as
``RecurrentKT.forward`` did before ``nn.lstm``. Dropout masks are drawn at
the shape padded to ``max_len`` with one plain draw each.

The ``render_*`` functions are the pipeline's prompt renderers as a chain
of ``str.replace`` calls with one ``json.dumps`` per JSON piece, the way
they were before the one-pass renderers. On inputs that hold no literal
``{placeholder}`` token, both give the same bytes.

``MPRatios`` is the proficiency-ratio record as it was when it stored the
ratio values and presence bits beside the counts, with ``validate``
checking that the three agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from prockt import nn
from prockt.data.schema import DIMENSIONS, ValidationError
from prockt.nn import PROB_EPS
from prockt.nn.tensor import ShapeError, _make, _unbroadcast, as_tensor
from prockt.pipeline import prompts

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
        a._accumulate(_unbroadcast(ga, a.shape))
        b._accumulate(_unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), backward_fn, "matmul")


def mul(a, b) -> nn.Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def backward_fn(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward_fn, "mul")


def log(a) -> nn.Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward_fn(g):
        a._accumulate(g / a.data)

    return _make(out_data, (a,), backward_fn, "log")


def masked_mean(a, mask) -> nn.Tensor:
    """Mean of ``a`` over positions where ``mask`` is nonzero; 0 when the mask is empty."""
    a = as_tensor(a)
    m = np.asarray(mask, dtype=a.data.dtype)
    if m.shape != a.shape:
        raise ShapeError(f"masked_mean: mask shape {m.shape} != value shape {a.shape}")
    denom = max(float(m.sum()), 1.0)
    out_data = np.array((a.data * m).sum() / denom)

    def backward_fn(g):
        a._accumulate(g * m / denom)

    return _make(out_data, (a,), backward_fn, "masked_mean")


def power(a, p: float) -> nn.Tensor:
    a = as_tensor(a)
    out_data = a.data ** p

    def backward_fn(g):
        a._accumulate(g * p * a.data ** (p - 1))

    return _make(out_data, (a,), backward_fn, "power")


def tanh(a) -> nn.Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward_fn(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward_fn, "tanh")


def softmax(a) -> nn.Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        a._accumulate(out_data * (g - dot))

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
        a._accumulate(g * mask)

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
        a._accumulate(np.broadcast_to(g, a.shape) / denom)

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


def bce(labels, probs: nn.Tensor, mask=None) -> nn.Tensor:
    """Binary cross-entropy over the positions ``mask`` selects (all when None)."""
    y = np.asarray(labels, dtype=probs.data.dtype)
    if mask is None:
        mask = np.ones_like(y)
    m = np.asarray(mask, dtype=probs.data.dtype)
    p = nn.clamp(probs, PROB_EPS, 1.0 - PROB_EPS)
    ll = nn.add(mul(y, log(p)), mul(1.0 - y, log(nn.add(1.0, mul(p, -1.0)))))
    return mul(masked_mean(ll, m), -1.0)


def masked_mse(targets, preds: nn.Tensor, mask) -> nn.Tensor:
    """Mean squared error over masked positions; 0 when the mask is empty."""
    t = np.asarray(targets, dtype=preds.data.dtype)
    m = np.asarray(mask, dtype=preds.data.dtype)
    diff = nn.add(preds, -t)
    return masked_mean(mul(diff, diff), m)


def composite_loss(r_gt, r_pred, mp_gt, mp_pred, mp_mask, valid_mask, alpha) -> nn.Tensor:
    """``nn.composite_loss`` as a graph of ``bce``, four ``masked_mse`` terms on
    column slices of ``mp_pred``, and the adds and the multiply joining them."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    loss = bce(r_gt, r_pred, valid_mask)
    if alpha == 0 or mp_pred is None:
        return loss
    valid = np.asarray(valid_mask)
    mp_mask = np.asarray(mp_mask)
    mp_gt = np.asarray(mp_gt)
    mp_total = None
    for i in range(len(DIMENSIONS)):
        term = masked_mse(mp_gt[..., i], mp_pred[..., i], valid * mp_mask[..., i])
        mp_total = term if mp_total is None else nn.add(mp_total, term)
    return nn.add(loss, mul(mp_total, alpha))


def layer_norm(x, gain, bias) -> nn.Tensor:
    mu = mean(x, axis=-1, keepdims=True)
    centered = nn.add(x, mul(mu, -1.0))
    var = mean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(nn.add(var, LAYER_NORM_EPS), -0.5)
    return nn.add(mul(mul(centered, inv), gain), bias)


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
    head_dim = cfg.embed_dim // cfg.attention_heads

    def split_heads(x):
        return transpose(reshape(x, (B, T, cfg.attention_heads, head_dim)), (0, 2, 1, 3))

    pos = nn.embedding_lookup(params["embed.position"], np.broadcast_to(np.arange(T), (B, T)))
    x = nn.add(model.interaction_embedding(batch), pos)
    x = model_dropout(model, x, training, rng)
    next_q = model.next_question_embedding(batch)

    q = split_heads(nn.matmul(next_q, params["attn.wq"]))
    k = split_heads(nn.matmul(x, params["attn.wk"]))
    v = split_heads(nn.matmul(x, params["attn.wv"]))

    scores = mul(stacked_matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(head_dim))
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


def unrolled_lstm(xw, wh, b) -> nn.Tensor:
    """``nn.lstm`` as per-step ``add``/``matmul``/``sigmoid``/``tanh``/``mul`` nodes."""
    B, T, four_d = xw.shape
    d = four_d // 4
    h = nn.Tensor(np.zeros((B, d)))
    c = nn.Tensor(np.zeros((B, d)))
    hs = []
    for t in range(T):
        gates = nn.add(nn.add(xw[:, t, :], nn.matmul(h, wh)), b)
        i = nn.sigmoid(gates[:, 0 * d:1 * d])
        f = nn.sigmoid(gates[:, 1 * d:2 * d])
        g = tanh(gates[:, 2 * d:3 * d])
        o = nn.sigmoid(gates[:, 3 * d:4 * d])
        c = nn.add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
        hs.append(reshape(h, (B, 1, d)))
    return nn.concat(hs, axis=1)


def unrolled_recurrent_forward(model, batch, training=False, rng=None):
    """``RecurrentKT.forward`` with the LSTM unrolled into per-step graph nodes."""
    params = model.params
    x = model_dropout(model, model.interaction_embedding(batch), training, rng)
    xw = nn.matmul(x, params["rnn.wx"])
    state = unrolled_lstm(xw, params["rnn.wh"], params["rnn.b"])
    state = model_dropout(model, state, training, rng)
    return model.readout(state, model.next_question_embedding(batch))


def _option_string(problem) -> str:
    if problem.question_type != "multiple_choice" or not problem.options:
        return ""
    items = ", ".join(
        json.dumps({"index": i + 1, "text": text}, ensure_ascii=False, separators=(",", ":"))
        for i, text in enumerate(problem.options)
    )
    return f"Options: [{items}]"


def _indicator_text(indicators) -> str:
    lines = ",\n".join(
        "    " + json.dumps({ind.code: ind.text}, ensure_ascii=False)
        for ind in indicators.indicators
    )
    return "[\n" + lines + "\n]"


def _response_text(indicators, responses) -> str:
    lines = ",\n".join(
        "    " + json.dumps({ind.code: responses.get(ind.code, "I don't know")},
                          ensure_ascii=False)
        for ind in indicators.indicators
    )
    return "[\n" + lines + "\n]"


def render_indicator_prompt(problem) -> str:
    return (prompts.INDICATOR_TEMPLATE
            .replace("{Problem_text}", problem.text)
            .replace("{problem_option_string}", _option_string(problem))
            .replace("{curriculum_theme_title}", ", ".join(problem.kc_ids)))


def render_student_prompt(problem, indicators, process_text, selected_answer) -> str:
    return (prompts.STUDENT_TEMPLATE
            .replace("{indicator_text}", _indicator_text(indicators))
            .replace("{problem}", problem.text)
            .replace("{problem_option_string}", _option_string(problem))
            .replace("{student_solving_trace}", process_text)
            .replace("{solution_answer_sets}", selected_answer))


def render_eval_prompt(problem, indicators, responses) -> str:
    return (prompts.EVAL_TEMPLATE
            .replace("{indicator_text}", _indicator_text(indicators))
            .replace("{answer_indicator_text}", _response_text(indicators, responses))
            .replace("{problem}", problem.text)
            .replace("{problem_option_string}", _option_string(problem)))


@dataclass
class MPRatios:
    values: dict[str, float]
    present: dict[str, bool]
    counts: dict[str, tuple[int, int]]

    @classmethod
    def from_counts(cls, counts: dict[str, tuple[int, int]]) -> "MPRatios":
        values, present, full = {}, {}, {}
        for d in DIMENSIONS:
            satisfied, total = counts.get(d, (0, 0))
            if total < 0 or satisfied < 0 or satisfied > total:
                raise ValidationError(f"dimension {d}: bad counts ({satisfied}, {total})")
            full[d] = (satisfied, total)
            present[d] = total > 0
            values[d] = satisfied / total if total > 0 else 0.0
        return cls(values=values, present=present, counts=full)

    def validate(self) -> None:
        for d in DIMENSIONS:
            satisfied, total = self.counts[d]
            if self.present[d]:
                if total < 1 or not 0 <= satisfied <= total:
                    raise ValidationError(f"dimension {d}: bad counts ({satisfied}, {total})")
                if self.values[d] != satisfied / total:
                    raise ValidationError(f"dimension {d}: value != satisfied/total")
            elif total != 0:
                raise ValidationError(f"dimension {d}: absent but total = {total}")

    def to_json(self) -> dict:
        return {
            "values": {d: self.values[d] for d in DIMENSIONS},
            "present": {d: self.present[d] for d in DIMENSIONS},
            "counts": {d: list(self.counts[d]) for d in DIMENSIONS},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MPRatios":
        mp = cls(
            values={d: float(doc["values"][d]) for d in DIMENSIONS},
            present={d: bool(doc["present"][d]) for d in DIMENSIONS},
            counts={d: (int(doc["counts"][d][0]), int(doc["counts"][d][1])) for d in DIMENSIONS},
        )
        mp.validate()
        return mp
