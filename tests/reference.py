"""Unfused reference graphs that the fused ops are tested against.

The ops here are the autodiff primitives that no program calls any more:
the elementwise, reduction and reshaping ops, ``relu``,
``embedding_lookup``, ``slice_`` (basic indexing), the stacked branch of
``matmul``, and ``dropout`` drawing its own mask. With them, ``embed`` is
the oracle of ``nn.embed`` and ``feed_forward`` that of
``nn.feed_forward``; ``interaction_embedding`` and
``next_question_embedding`` build a model's embeddings as the lookups and
adds they were before each became one ``embed`` node. ``readout`` is the
oracle of ``nn.readout``: the prediction heads as the ``concat``,
``matmul``, ``add``, ``clamp`` and ``sigmoid`` nodes ``KTModel.readout``
built before the readout was one node.
``composite_loss`` is the loss oracle: it slices the columns out of the
readout's probabilities and builds the training objective node by node
from ``bce`` and one ``masked_mse`` per proficiency dimension, as the
training loop did before ``nn.composite_loss`` made it one node.
``layer_norm``, ``attention`` and ``unfused_attention_forward`` build the
attention block node by node, as ``AttentionKT.forward`` did before
``nn.layer_norm`` and ``nn.attention`` replaced it; ``nn.layer_norm``'s
residual is the ``add`` before ``layer_norm`` here.
``layer_norm_closed_form`` is ``nn.layer_norm`` computing every
intermediate into a new array, the bit-for-bit oracle of its gradients.
``unrolled_lstm`` and ``unrolled_recurrent_forward`` build the LSTM step
by step, as ``RecurrentKT.forward`` did before ``nn.lstm``. Each dropout
mask is one plain draw at its activation's shape, and ``dropout`` is the
node that ``nn.embed``, ``nn.feed_forward`` and ``nn.lstm`` fold in when
given that mask.

The ``render_*`` functions are the pipeline's prompt renderers as a chain
of ``str.replace`` calls with one ``json.dumps`` per JSON piece, the way
they were before the one-pass renderers. On inputs that hold no literal
``{placeholder}`` token, both give the same bytes.

``MPRatios`` is the proficiency-ratio record as it was when it stored the
ratio values and presence bits beside the counts, with ``validate``
checking that the three agree.

``make_batches`` fills each batch element by element, one numpy scalar
write per array and step, as ``prockt.data.make_batches`` did before it
filled a window's row with one list assignment per array. ``Adam`` is the
optimizer step as whole-array expressions, each allocating a new
parameter-sized array, as ``nn.Adam`` was before it worked in place in
chunks.

``read_log_lines`` is a cache log read one line at a time, as
``JsonLog`` read every file before it decoded a whole log as one JSON
array. ``old_interaction_key`` is an interaction's result-log key as it
was before each problem was digested from a JSON array of its fields:
a record digest and a problem digest, joined by a third.

``delong_placements`` is the paired DeLong test computed from every
pairwise comparison, the oracle of ``prockt.training.delong``'s midranks.

``extract_json_object`` is the completion parser's fence-first scan as it
was before it skipped the fence regex on a completion without a fence and
decoded in place: it decodes a slice of the text at every '{' that a
regex finds, fenced blocks first.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from prockt import nn
from prockt.data.batches import MP_IMPUTE, Batch, shift_left
from prockt.data.schema import DIMENSIONS, ValidationError
from prockt.nn import PROB_EPS
from prockt.nn.optim import BETA1, BETA2, EPS
from prockt.nn.tensor import ShapeError, _make, _unbroadcast, as_tensor
from prockt.pipeline import prompts

LAYER_NORM_EPS = 1e-5
MASK_FILL = -1e9


def add(a, b) -> nn.Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def backward_fn(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward_fn, "add")


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


def sigmoid(a) -> nn.Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward_fn(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward_fn, "sigmoid")


def clamp(a, lo: float, hi: float) -> nn.Tensor:
    """Clip values to [lo, hi]; gradient is zero outside the interval."""
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward_fn(g):
        a._accumulate(g * inside)

    return _make(out_data, (a,), backward_fn, "clamp")


def concat(tensors, axis: int = -1) -> nn.Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward_fn(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _make(out_data, tuple(tensors), backward_fn, "concat")


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


def relu(a) -> nn.Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        a._accumulate(g * (a.data > 0.0))

    return _make(out_data, (a,), backward_fn, "relu")


def embedding_lookup(table, indices) -> nn.Tensor:
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


def embed(terms) -> nn.Tensor:
    """``nn.embed`` as a graph: an ``embedding_lookup`` per ``(table, ids)``
    term, ``matmul`` and ``add`` per ``(x, w, b)`` term, joined left to right
    by ``add``."""
    out = None
    for term in terms:
        if len(term) == 2:
            value = embedding_lookup(*term)
        else:
            x, w, b = term
            value = add(nn.matmul(nn.Tensor(x), w), b)
        out = value if out is None else add(out, value)
    return out


def feed_forward(x, w1, b1, w2, b2) -> nn.Tensor:
    """``nn.feed_forward`` as the ``matmul``/``add``/``relu`` graph."""
    return add(nn.matmul(relu(add(nn.matmul(x, w1), b1)), w2), b2)


def dropout(a, rate: float, rng: np.random.Generator | None = None,
            training: bool = True) -> nn.Tensor:
    """Inverted dropout: kept activations scaled by 1/(1-rate); identity in eval."""
    a = as_tensor(a)
    if not training or rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype)
    scale = 1.0 / (1.0 - rate)
    mask = keep * scale
    out_data = a.data * mask

    def backward_fn(g):
        a._accumulate(g * mask)

    return _make(out_data, (a,), backward_fn, "dropout")


def slice_(a, key) -> nn.Tensor:
    """Basic (view-style) indexing; gradient scatters back into place."""
    a = as_tensor(a)
    out_data = a.data[key]

    def backward_fn(g):
        scattered = np.zeros_like(a.data)
        scattered[key] += g
        a._accumulate(scattered)

    return _make(out_data, (a,), backward_fn, "slice")


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
    p = clamp(probs, PROB_EPS, 1.0 - PROB_EPS)
    ll = add(mul(y, log(p)), mul(1.0 - y, log(add(1.0, mul(p, -1.0)))))
    return mul(masked_mean(ll, m), -1.0)


def masked_mse(targets, preds: nn.Tensor, mask) -> nn.Tensor:
    """Mean squared error over masked positions; 0 when the mask is empty."""
    t = np.asarray(targets, dtype=preds.data.dtype)
    m = np.asarray(mask, dtype=preds.data.dtype)
    diff = add(preds, -t)
    return masked_mean(mul(diff, diff), m)


def composite_loss(r_gt, probs, mp_gt, mp_mask, valid_mask, alpha) -> nn.Tensor:
    """``nn.composite_loss`` as a graph: ``bce`` on a slice of column 0 of
    ``probs``, one ``masked_mse`` term on a slice of each further column, and
    the adds and the multiply joining them."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    loss = bce(r_gt, slice_(probs, np.s_[..., 0]), valid_mask)
    if alpha == 0 or probs.shape[-1] == 1:
        return loss
    valid = np.asarray(valid_mask)
    mp_mask = np.asarray(mp_mask)
    mp_gt = np.asarray(mp_gt)
    mp_total = None
    for i in range(probs.shape[-1] - 1):
        term = masked_mse(mp_gt[..., i], slice_(probs, np.s_[..., 1 + i]),
                          valid * mp_mask[..., i])
        mp_total = term if mp_total is None else add(mp_total, term)
    return add(loss, mul(mp_total, alpha))


def readout(state, next_q, w, b, limit) -> nn.Tensor:
    """``nn.readout`` as a graph: one matmul of ``[state | next_q]`` by the
    heads' weight, plus their bias, then clamp and sigmoid."""
    logits = add(nn.matmul(concat([state, next_q]), w), b)
    return sigmoid(clamp(logits, -limit, limit))


def layer_norm(x, gain, bias) -> nn.Tensor:
    mu = mean(x, axis=-1, keepdims=True)
    centered = add(x, mul(mu, -1.0))
    var = mean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, LAYER_NORM_EPS), -0.5)
    return add(mul(mul(centered, inv), gain), bias)


def interaction_embedding(model, batch) -> nn.Tensor:
    """``KTModel.interaction_embedding`` as the lookups and adds it was built from."""
    params = model.params
    e = add(add(embedding_lookup(params["embed.question"], batch.question_ids),
                      embedding_lookup(params["embed.concept"], batch.concept_ids)),
               embedding_lookup(params["embed.response"], batch.correctness))
    if model.config.variant == "statuskt":
        fused = add(nn.matmul(nn.Tensor(batch.mp_inputs), params["mp.proj.weight"]),
                       params["mp.proj.bias"])
        e = add(e, fused)
    return e


def next_question_embedding(model, batch) -> nn.Tensor:
    return add(embedding_lookup(model.params["embed.question"], shift_left(batch.question_ids)),
                  embedding_lookup(model.params["embed.concept"], shift_left(batch.concept_ids)))


def layer_norm_closed_form(x, residual, gain, bias, eps=LAYER_NORM_EPS) -> nn.Tensor:
    """``nn.layer_norm`` with a new array for every intermediate: the forward
    of ``add`` and ``layer_norm`` above and the closed-form backward of Ba et
    al. (2016), each float operation in the order ``nn.layer_norm`` does it."""
    x, residual, gain, bias = (as_tensor(t) for t in (x, residual, gain, bias))
    d = x.shape[-1]
    s = x.data + residual.data
    centered = s + s.mean(axis=-1, keepdims=True) * -1.0
    inv = ((centered * centered).mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat = centered * inv

    def backward_fn(g):
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        x._accumulate(dx)
        residual._accumulate(dx)
        gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        bias._accumulate(g.reshape(-1, d).sum(axis=0))

    return _make(xhat * gain.data + bias.data, (x, residual, gain, bias), backward_fn,
                 "layer_norm")


def attention(q, k, v, bias, heads, mask) -> nn.Tensor:
    """``nn.attention`` as a graph: the heads split by ``reshape`` and
    ``transpose``, the scaled scores, ``softmax`` and the dropout ``mul``,
    and the heads merged back."""
    B, T, d = q.shape
    dh = d // heads

    def split(t):
        return transpose(reshape(t, (B, T, heads, dh)), (0, 2, 1, 3))

    scores = mul(stacked_matmul(split(q), transpose(split(k), (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    weights = softmax(add(scores, bias))
    if mask is not None:
        weights = mul(weights, mask)
    return reshape(transpose(stacked_matmul(weights, split(v)), (0, 2, 1, 3)), (B, T, d))


def unfused_attention_forward(model, batch, training=False, rng=None):
    """``AttentionKT.forward`` built node by node."""
    cfg = model.config
    params = model.params
    B, T = batch.question_ids.shape

    pos = embedding_lookup(params["embed.position"], np.broadcast_to(np.arange(T), (B, T)))
    x = add(interaction_embedding(model, batch), pos)
    x = dropout(x, cfg.dropout, rng, training)
    next_q = next_question_embedding(model, batch)

    q = nn.matmul(next_q, params["attn.wq"])
    k = nn.matmul(x, params["attn.wk"])
    v = nn.matmul(x, params["attn.wv"])
    causal = np.tril(np.ones((T, T), dtype=bool))
    key_valid = batch.valid_mask.astype(bool)[:, None, None, :]
    allowed = causal[None, None, :, :] & key_valid
    bias = np.where(allowed, 0.0, MASK_FILL)
    weight_mask = None
    if training and cfg.dropout:  # drawn as ``dropout`` draws it
        keep = rng.random((B, cfg.attention_heads, T, T)) >= cfg.dropout
        weight_mask = keep * (1.0 / (1.0 - cfg.dropout))
    ctx = attention(q, k, v, bias, cfg.attention_heads, weight_mask)
    ctx = nn.matmul(ctx, params["attn.wo"])

    h1 = layer_norm(add(ctx, next_q), params["ln1.gain"], params["ln1.bias"])
    f = feed_forward(h1, params["ffn.w1"], params["ffn.b1"], params["ffn.w2"], params["ffn.b2"])
    f = dropout(f, cfg.dropout, rng, training)
    state = layer_norm(add(f, h1), params["ln2.gain"], params["ln2.bias"])
    return model.readout(state, next_q)


def unrolled_lstm(xw, wh, b) -> nn.Tensor:
    """``nn.lstm`` as per-step ``add``/``matmul``/``sigmoid``/``tanh``/``mul`` nodes."""
    B, T, four_d = xw.shape
    d = four_d // 4
    h = nn.Tensor(np.zeros((B, d)))
    c = nn.Tensor(np.zeros((B, d)))
    hs = []
    for t in range(T):
        gates = add(add(slice_(xw, np.s_[:, t, :]), nn.matmul(h, wh)), b)
        i = sigmoid(slice_(gates, np.s_[:, 0 * d:1 * d]))
        f = sigmoid(slice_(gates, np.s_[:, 1 * d:2 * d]))
        g = tanh(slice_(gates, np.s_[:, 2 * d:3 * d]))
        o = sigmoid(slice_(gates, np.s_[:, 3 * d:4 * d]))
        c = add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
        hs.append(reshape(h, (B, 1, d)))
    return concat(hs, axis=1)


def unrolled_recurrent_forward(model, batch, training=False, rng=None):
    """``RecurrentKT.forward`` with the LSTM unrolled into per-step graph nodes."""
    params = model.params
    rate = model.config.dropout
    x = dropout(interaction_embedding(model, batch), rate, rng, training)
    xw = nn.matmul(x, params["rnn.wx"])
    state = unrolled_lstm(xw, params["rnn.wh"], params["rnn.b"])
    state = dropout(state, rate, rng, training)
    return model.readout(state, next_question_embedding(model, batch))


def delong_placements(labels, scores_a, scores_b) -> tuple[float, float]:
    """The paired DeLong test from O(m·n) placement values: the Mann-Whitney
    kernel of every (positive, negative) pair, 1 where the positive scores
    higher and 1/2 for a tie. Returns auc_a - auc_b and its variance."""
    pos = np.asarray(labels) == 1
    v10, v01, aucs = [], [], []
    for scores in (scores_a, scores_b):
        s = np.asarray(scores, dtype=float)
        x, z = s[pos][:, None], s[~pos][None, :]
        kernel = (x > z) + 0.5 * (x == z)  # (m, n)
        v10.append(kernel.mean(axis=1))
        v01.append(kernel.mean(axis=0))
        aucs.append(kernel.mean())
    m, n = kernel.shape
    var = np.var(v10[0] - v10[1], ddof=1) / m + np.var(v01[0] - v01[1], ddof=1) / n
    return aucs[0] - aucs[1], var


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
        "    " + json.dumps({code: text}, ensure_ascii=False)
        for code, text in indicators.indicators.items()
    )
    return "[\n" + lines + "\n]"


def _response_text(indicators, responses) -> str:
    lines = ",\n".join(
        "    " + json.dumps({code: responses.get(code, "I don't know")}, ensure_ascii=False)
        for code in indicators.indicators
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


def _mp_features(rec) -> tuple[np.ndarray, np.ndarray]:
    values = np.full(4, MP_IMPUTE)
    mask = np.zeros(4)
    if rec.mp is not None:
        for i, d in enumerate(DIMENSIONS):
            satisfied, total = rec.mp.counts[d]
            if total:
                values[i] = satisfied / total
                mask[i] = 1.0
    return values, mask


def make_batches(sequences, problems, vocab, max_len: int = 200,
                 batch_size: int = 16) -> list[Batch]:
    windows = []
    for seq in sequences:
        for start in range(0, len(seq.steps), max_len):
            windows.append(seq.steps[start:start + max_len])
    batches = []
    for b0 in range(0, len(windows), batch_size):
        group = windows[b0:b0 + batch_size]
        B, T = len(group), max(len(steps) for steps in group)
        q = np.zeros((B, T), dtype=np.int64)
        c = np.zeros((B, T), dtype=np.int64)
        r = np.zeros((B, T), dtype=np.int64)
        mp_in = np.zeros((B, T, 8))
        valid = np.zeros((B, T))
        for bi, steps in enumerate(group):
            for t, rec in enumerate(steps):
                problem = problems[rec.problem_id]
                q[bi, t] = vocab.question_index[rec.problem_id]
                c[bi, t] = vocab.concept_index[problem.kc_ids[0]]
                r[bi, t] = rec.correct
                values, mask = _mp_features(rec)
                mp_in[bi, t, :4] = values
                mp_in[bi, t, 4:] = mask
                valid[bi, t] = 1.0
        batches.append(Batch(question_ids=q, concept_ids=c, correctness=r,
                             mp_inputs=mp_in, valid_mask=valid))
    return batches


class Adam(nn.Adam):
    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def read_log_lines(data: bytes) -> dict:
    entries = {}
    for line in data.splitlines():
        try:
            entry = json.loads(line.decode())
        except ValueError:
            continue
        if type(entry) is list and len(entry) == 2 and type(entry[0]) is str:
            entries[entry[0]] = entry[1]
    return entries


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def old_interaction_key(problem, record, model: str = "", temperature: float = 0.0) -> str:
    setting = (model, repr(temperature))
    templates = _digest(prompts.INDICATOR_TEMPLATE, prompts.STUDENT_TEMPLATE,
                        prompts.EVAL_TEMPLATE)
    problem_key = _digest(json.dumps(problem.to_json(), sort_keys=True), templates, *setting)
    record_key = _digest(record.student_id, record.problem_id, str(record.timestamp),
                         record.process_text, record.selected_answer)[:24]
    return _digest(record_key, problem_key)[:32]


_FENCE_RE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)


def extract_json_object(raw: str) -> dict:
    candidates = _FENCE_RE.findall(raw)
    candidates.append(raw)
    decoder = json.JSONDecoder()
    for text in candidates:
        for pos in (m.start() for m in re.finditer(r"\{", text)):
            try:
                obj, _ = decoder.raw_decode(text[pos:])
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict):
                return obj
    raise ValueError(f"no JSON object found in completion: {raw[:200]!r}")
