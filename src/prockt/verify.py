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


def _reduce(x):
    """sum(w·x) for the fixed weights w = sin(1), sin(2), ...: one node built
    here, so that no op stays in ``nn`` only for this check."""
    w = np.sin(np.arange(1.0, x.size + 1)).reshape(x.shape)
    return nn.Tensor((x.data * w).sum(), parents=(x,), backward_fn=lambda g: x._accumulate(g * w))


def _leaves(rng, *shapes):
    return [nn.Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def _mask(rng, shape, keep=0.5):
    """An inverted-dropout mask that keeps each entry with probability ``keep``."""
    return (rng.random(shape) < keep) / keep


def _embed(rng, name):
    params = _leaves(rng, (5, 3), (4, 3), (2, 3), (3,))
    terms = [(t, rng.integers(0, len(t.data), size=(2, 4))) for t in params[:2]]
    if name == "embed":
        return lambda: _reduce(nn.embed(terms)), params[:2]
    terms.insert(1, (rng.normal(size=(2, 4, 2)), *params[2:]))  # a dense term between them
    mask = _mask(rng, (2, 4, 3))
    return lambda: _reduce(nn.embed(terms, mask)), params


def _feed_forward(rng, name):
    x, w1, b1, _, _ = params = _leaves(rng, (2, 3, 4), (4, 5), (5,), (5, 4), (4,))
    while np.abs(x.data @ w1.data + b1.data).min() < 1e-2:  # 100 steps from relu's kink
        b1.data = rng.normal(size=5)
    mask = _mask(rng, (2, 3, 4)) if name.endswith("_dropout") else None
    return lambda: _reduce(nn.feed_forward(*params, mask)), params


def _lstm(rng, name):
    params = _leaves(rng, (2, 3, 2), (2, 8), (2, 8), (8,))  # B=2, T=3, k=2, d=2
    mask = _mask(rng, (2, 3, 2)) if name.endswith("_dropout") else None
    return lambda: _reduce(nn.lstm(*params, mask)), params


def _layer_norm(rng, name):
    params = _leaves(rng, (2, 3, 8), (2, 3, 8), (8,), (8,))
    return lambda: _reduce(nn.layer_norm(*params, 1e-5)), params


def _attention(rng, name):
    params = _leaves(rng, (2, 3, 4), (2, 3, 4), (4, 4), (4, 4), (4, 4), (4, 4))  # 2 heads of 2
    key_valid = np.array([[True, True, True], [True, True, False]])  # a padded last key
    mask = _mask(rng, (2, 2, 3, 3), keep=0.8)
    return lambda: _reduce(nn.attention(*params, key_valid, 2, mask)), params


def _readout(rng, name):
    # all statuskt heads at once, as ``KTModel.readout`` reads them out
    params = _leaves(rng, (2, 3, 2), (2, 3, 2), (4, 5), (5,))
    if name == "readout":
        return lambda: _reduce(nn.readout(*params, LOGIT_CLAMP)), params
    labels, valid = (rng.random((2, 3)) < 0.5) * 1.0, (rng.random((2, 3)) < 0.6) * 1.0
    mp_targets, mp_mask = rng.random((2, 3, 4)), (rng.random((2, 3, 4)) < 0.7) * 1.0
    return (lambda: nn.composite_loss(labels, nn.readout(*params, LOGIT_CLAMP), mp_targets,
                                      mp_mask, valid, 0.5)), params


# each case's builder, called with the case's generator and name
CASES = {"embed": _embed, "embed_dense_dropout": _embed, "feed_forward": _feed_forward,
         "feed_forward_dropout": _feed_forward, "lstm": _lstm, "lstm_dropout": _lstm,
         "layer_norm": _layer_norm, "attention": _attention, "readout": _readout,
         "composite_loss": _readout}


def op_cases(seed: int):
    """(name, loss_fn, params) triples; every loss_fn reduces to a scalar. Each
    case draws from its own generator, named after it, so adding or dropping a
    case changes no other case's values."""
    return [(name, *build(nn.init.named_rng(seed, name), name)) for name, build in CASES.items()]


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
