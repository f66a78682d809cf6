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
    b23 = _rand(rng, 2, 3)
    m34 = _rand(rng, 3, 4)
    table = _rand(rng, 5, 3)
    idx = rng.integers(0, 5, size=(2, 4))
    mask = (rng.random((2, 3)) < 0.6).astype(float)
    probs_logit = _rand(rng, 2, 3)
    labels = (rng.random((2, 3)) < 0.5).astype(float)
    drop_mask = (rng.random((2, 3)) < 0.5) / 0.5
    xw = _rand(rng, 2, 3, 8)  # B=2, T=3, d=2
    wh = _rand(rng, 2, 8)
    bias = _rand(rng, 8)
    a234 = _rand(rng, 2, 3, 4)  # a dense layer over (B, T, k)
    m42 = _rand(rng, 4, 2)
    ln_x, gain, shift = _rand(rng, 2, 3, 8), _rand(rng, 8), _rand(rng, 8)
    q, k, v = _rand(rng, 2, 3, 4), _rand(rng, 2, 3, 4), _rand(rng, 2, 3, 4)  # 2 heads of 2
    padded = np.zeros((2, 1, 1, 3), dtype=bool)
    padded[1, ..., 2] = True  # the second sequence's last key
    attn_bias = np.where(np.triu(np.ones((3, 3), dtype=bool), 1) | padded, -1e9, 0.0)
    attn_mask = (rng.random((2, 2, 3, 3)) < 0.8) / 0.8
    mp_logit = _rand(rng, 2, 3, 4)
    mp_targets = rng.random((2, 3, 4))
    mp_mask = (rng.random((2, 3, 4)) < 0.7).astype(float)

    def reduce(x):
        """sum(w·x) for the fixed weights w = sin(1), sin(2), ...: one node
        built here, so that no op stays in ``nn`` only for this check."""
        w = np.sin(np.arange(1.0, x.size + 1)).reshape(x.shape)
        return nn.Tensor((x.data * w).sum(), parents=(x,),
                         backward_fn=lambda g: x._accumulate(g * w))

    def head(logit):  # as ``KTModel.readout`` turns logits into probabilities
        return nn.sigmoid(nn.clamp(logit, -LOGIT_CLAMP, LOGIT_CLAMP))

    return [
        ("add", lambda: reduce(nn.add(a23, b23)), [a23, b23]),
        ("add_broadcast", lambda: reduce(nn.add(a23, m34[:, 0])), [a23, m34]),
        ("matmul", lambda: reduce(nn.matmul(a23, m34)), [a23, m34]),
        ("matmul_3d", lambda: reduce(nn.matmul(a234, m42)), [a234, m42]),
        ("concat", lambda: reduce(nn.concat([a23, b23], axis=1)), [a23, b23]),
        ("slice", lambda: reduce(a23[:, 1:3]), [a23]),
        ("embedding_lookup", lambda: reduce(nn.embedding_lookup(table, idx)), [table]),
        ("sigmoid", lambda: reduce(nn.sigmoid(a23)), [a23]),
        ("dropout", lambda: reduce(nn.dropout(a23, drop_mask)), [a23]),
        ("relu", lambda: reduce(nn.relu(nn.add(a23, 0.05))), [a23]),
        ("lstm", lambda: reduce(nn.lstm(xw, wh, bias)), [xw, wh, bias]),
        ("layer_norm", lambda: reduce(nn.layer_norm(ln_x, gain, shift, 1e-5)),
         [ln_x, gain, shift]),
        ("attention", lambda: reduce(nn.attention(q, k, v, attn_bias, 2, attn_mask)), [q, k, v]),
        ("composite_loss", lambda: nn.composite_loss(
            labels, head(probs_logit), mp_targets, head(mp_logit), mp_mask, mask, 0.5),
         [probs_logit, mp_logit]),
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
        preds = model.forward(batch, training=False)
        return nn.composite_loss(batch.targets_correct, preds.r_pred,
                              batch.targets_mp, preds.mp_pred,
                              batch.target_mp_mask, batch.target_mask, 0.5)

    return nn.check_gradients(loss_fn, list(model.parameters().values()))


def run_suite(op_seeds=range(20)) -> tuple[bool, list[str]]:
    """Run the whole suite; returns (passed, report lines)."""
    lines = []
    ok = True
    for name, err in check_ops(op_seeds).items():
        passed = err < REL_TOL
        ok &= passed
        lines.append(f"op {name}: max rel err {err:.2e} [{'ok' if passed else 'FAIL'}]")
    for backbone in ("recurrent", "attention"):
        err = check_model_loss(backbone)
        passed = err < REL_TOL
        ok &= passed
        lines.append(f"model {backbone} composite loss: max rel err {err:.2e} "
                     f"[{'ok' if passed else 'FAIL'}]")
    return ok, lines
