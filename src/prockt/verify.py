"""Finite-difference verification suite for the autodiff engine.

Checks every registered op on randomized small tensors, then the full
composite-loss gradient of both backbones on a toy batch. Used by the
``gradcheck`` CLI command and the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .data.batches import Batch
from .models import ModelConfig, build_model
from .models.base import LOGIT_CLAMP

REL_TOL = 1e-4


def _rand(rng, *shape):
    return nn.Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)


def op_cases(seed: int):
    """(name, loss_fn, params) triples; every loss_fn reduces to a scalar."""
    rng = np.random.default_rng(seed)
    a23 = _rand(rng, 2, 3)
    rng.normal(size=(2, 3))  # a retired case's draws keep every later value as it was
    m34 = _rand(rng, 3, 4)
    table, table2 = _rand(rng, 5, 3), _rand(rng, 4, 3)
    idx, idx2 = rng.integers(0, 5, size=(2, 4)), rng.integers(0, 4, size=(2, 4))
    dense_x, dense_w, dense_b = rng.normal(size=(2, 4, 2)), _rand(rng, 2, 3), _rand(rng, 3)
    mask = (rng.random((2, 3)) < 0.6).astype(float)
    labels = (rng.random((2, 3)) < 0.5).astype(float)
    rng.random((2, 3))
    xw = _rand(rng, 2, 3, 8)  # B=2, T=3, d=2
    wh = _rand(rng, 2, 8)
    bias = _rand(rng, 8)
    a234 = _rand(rng, 2, 3, 4)  # a dense layer over (B, T, k)
    m42 = _rand(rng, 4, 2)
    w1, b1, w2, b2 = _rand(rng, 4, 5), _rand(rng, 5), _rand(rng, 5, 4), _rand(rng, 4)
    ln_x, gain, shift = _rand(rng, 2, 3, 8), _rand(rng, 8), _rand(rng, 8)
    q, k, v = _rand(rng, 2, 3, 4), _rand(rng, 2, 3, 4), _rand(rng, 2, 3, 4)  # 2 heads of 2
    padded = np.zeros((2, 1, 1, 3), dtype=bool)
    padded[1, ..., 2] = True  # the second sequence's last key
    attn_bias = np.where(np.triu(np.ones((3, 3), dtype=bool), 1) | padded, -1e9, 0.0)
    attn_mask = (rng.random((2, 2, 3, 3)) < 0.8) / 0.8
    mp_targets = rng.random((2, 3, 4))
    mp_mask = (rng.random((2, 3, 4)) < 0.7).astype(float)
    state, next_q = _rand(rng, 2, 3, 2), _rand(rng, 2, 3, 2)
    # the statuskt heads: correctness, then the four proficiency ratios
    head_w, head_b = _rand(rng, 4, 5), _rand(rng, 5)
    ln_res = _rand(rng, 2, 3, 8)
    # dropout masks at rate 0.5 for embed, feed_forward and lstm
    embed_mask, ffn_mask, lstm_mask = ((rng.random(shape) < 0.5) / 0.5
                                       for shape in ((2, 4, 3), (2, 3, 4), (2, 3, 2)))

    def reduce(x):
        """sum(w·x) for the fixed weights w = sin(1), sin(2), ...: one node
        built here, so that no op stays in ``nn`` only for this check."""
        w = np.sin(np.arange(1.0, x.size + 1)).reshape(x.shape)
        return nn.Tensor((x.data * w).sum(), parents=(x,),
                         backward_fn=lambda g: x._accumulate(g * w))

    def head():  # as ``KTModel.readout`` reads all heads out at once
        return nn.readout(state, next_q, head_w, head_b, LOGIT_CLAMP)

    def loss():
        return nn.composite_loss(labels, head(), mp_targets, mp_mask, mask, 0.5)

    return [
        ("matmul", lambda: reduce(nn.matmul(a23, m34)), [a23, m34]),
        ("matmul_3d", lambda: reduce(nn.matmul(a234, m42)), [a234, m42]),
        ("embed", lambda: reduce(nn.embed([(table, idx), (table2, idx2)])), [table, table2]),
        ("embed_dense_dropout", lambda: reduce(nn.embed(
            [(table, idx), (dense_x, dense_w, dense_b), (table2, idx2)], embed_mask)),
         [table, table2, dense_w, dense_b]),
        ("feed_forward", lambda: reduce(nn.feed_forward(a234, w1, b1, w2, b2)),
         [a234, w1, b1, w2, b2]),
        ("feed_forward_dropout", lambda: reduce(nn.feed_forward(a234, w1, b1, w2, b2, ffn_mask)),
         [a234, w1, b1, w2, b2]),
        ("lstm", lambda: reduce(nn.lstm(xw, wh, bias)), [xw, wh, bias]),
        ("lstm_dropout", lambda: reduce(nn.lstm(xw, wh, bias, lstm_mask)), [xw, wh, bias]),
        ("layer_norm", lambda: reduce(nn.layer_norm(ln_x, ln_res, gain, shift, 1e-5)),
         [ln_x, ln_res, gain, shift]),
        ("attention", lambda: reduce(nn.attention(q, k, v, attn_bias, 2, attn_mask)), [q, k, v]),
        ("readout", lambda: reduce(head()), [state, next_q, head_w, head_b]),
        ("composite_loss", loss, [state, next_q, head_w, head_b]),
    ]


def check_ops(seeds=range(100)) -> dict[str, float]:
    """Max relative finite-difference error per op across seeds."""
    worst: dict[str, float] = {}
    for seed in seeds:
        for name, fn, params in op_cases(seed):
            err = nn.check_gradients(fn, params)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


def toy_batch(seed: int = 0) -> Batch:
    """Two full 8-step windows over 6 questions and 4 concepts."""
    rng = np.random.default_rng(seed)
    B, T = 2, 8
    mp_vals = rng.random((B, T, 4))
    mp_mask = (rng.random((B, T, 4)) < 0.8).astype(float)
    correctness = rng.integers(0, 2, size=(B, T))
    return Batch(
        question_ids=rng.integers(1, 7, size=(B, T)),
        concept_ids=rng.integers(1, 5, size=(B, T)),
        correctness=correctness,
        mp_inputs=np.concatenate([mp_vals, mp_mask], axis=-1),
        valid_mask=np.ones((B, T)))


def check_model_loss(backbone: str) -> float:
    """Finite-difference check of the full statuskt loss gradient for one backbone."""
    batch = toy_batch(0)
    config = ModelConfig(backbone=backbone, variant="statuskt",
                         num_questions=6, num_concepts=4, max_len=8,
                         embed_dim=8, dropout=0.0, attention_heads=2, seed=0)
    model = build_model(config)

    def loss_fn():
        return nn.composite_loss(batch.targets_correct, model.forward(batch, training=False),
                                 batch.targets_mp, batch.target_mp_mask, batch.target_mask, 0.5)

    return nn.check_gradients(loss_fn, list(model.parameters().values()))


def run_suite(op_seeds=range(20)) -> tuple[bool, list[str]]:
    """Run the whole suite; returns (passed, report lines)."""
    errors = {f"op {name}": err for name, err in check_ops(op_seeds).items()}
    for backbone in ("recurrent", "attention"):
        errors[f"model {backbone} composite loss"] = check_model_loss(backbone)
    lines = [f"{name}: max rel err {err:.2e} [{'ok' if err < REL_TOL else 'FAIL'}]"
             for name, err in errors.items()]
    return all(err < REL_TOL for err in errors.values()), lines
