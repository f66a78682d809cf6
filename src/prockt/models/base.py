"""Shared model machinery: embeddings, fusion, readout heads.

Position t of the output predicts step t+1: the probability of answering
question t+1 correctly and, in the statuskt variant, the four
proficiency ratios of step t+1. Inputs at position t never include
anything from step t+1 except the identity of its question and concept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.batches import Batch, shift_left
from ..data.schema import DIMENSIONS
from .config import ModelConfig

LOGIT_CLAMP = 15.0


@dataclass
class Predictions:
    r_pred: nn.Tensor              # (B, T), P(next answer correct)
    mp_pred: nn.Tensor | None      # (B, T, 4) in the statuskt variant, else None


class KTModel:
    """Base class: owns parameters, embeddings, fusion, and heads."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, nn.Tensor] = {}
        d = config.embed_dim
        self._add("embed.question", (config.num_questions + 1, d), fan_in=d)
        self._add("embed.concept", (config.num_concepts + 1, d), fan_in=d)
        self._add("embed.response", (2, d), fan_in=d)
        self._add("head.correct.weight", (2 * d, 1))
        self._add_zeros("head.correct.bias", (1,))
        if config.variant == "statuskt":
            self._add("mp.proj.weight", (8, d))
            self._add_zeros("mp.proj.bias", (d,))
            for dim in DIMENSIONS:
                self._add(f"head.mp.{dim}.weight", (2 * d, 1))
                self._add_zeros(f"head.mp.{dim}.bias", (1,))

    def _add(self, name: str, shape: tuple[int, ...], fan_in: int | None = None) -> None:
        self.params[name] = nn.init.uniform_fan_in(self.config.seed, name, shape, fan_in)

    def _add_zeros(self, name: str, shape: tuple[int, ...]) -> None:
        self.params[name] = nn.init.zeros(shape)

    def _add_ones(self, name: str, shape: tuple[int, ...]) -> None:
        self.params[name] = nn.init.ones(shape)

    def parameters(self) -> dict[str, nn.Tensor]:
        return self.params

    def load_params(self, params: dict[str, nn.Tensor]) -> None:
        missing = set(self.params) - set(params)
        if missing:
            raise KeyError(f"checkpoint missing parameters: {sorted(missing)}")
        for name in self.params:
            if tuple(params[name].shape) != tuple(self.params[name].shape):
                raise nn.ShapeError(
                    f"parameter {name}: checkpoint shape {params[name].shape} "
                    f"!= model shape {self.params[name].shape}")
            self.params[name].data = params[name].data.copy()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- shared forward pieces -------------------------------------------

    def _check_batch(self, batch: Batch) -> None:
        T = batch.question_ids.shape[1]
        if T > self.config.max_len:
            raise nn.ShapeError(
                f"batch length {T} exceeds model max_len {self.config.max_len}")

    def _dropout_mask(self, shape: tuple[int, ...], training: bool,
                      rng: np.random.Generator | None) -> np.ndarray | None:
        """Inverted-dropout multiplier for an activation of ``shape``; None when
        nothing is dropped (eval mode or a zero rate).

        Time is axis 1 of a (B, T, d) activation and axes 2 and 3 of (B, h, T, T)
        attention weights. Drawing at the shape padded to ``max_len`` and keeping
        the leading corner makes ``rng`` advance, and the real positions' masks
        come out, as on a batch padded to ``max_len``, so training does not
        depend on how far ``make_batches`` trimmed a batch.
        """
        rate = self.config.dropout
        if not training or rate == 0.0:
            return None
        if rng is None:
            raise ValueError("dropout in training mode needs an rng")
        L = self.config.max_len
        draw_shape = (shape[0], L, shape[2]) if len(shape) == 3 else (*shape[:2], L, L)
        corner = tuple(slice(n) for n in shape)
        return (rng.random(draw_shape)[corner] >= rate).astype(np.float64) * (1.0 / (1.0 - rate))

    def interaction_embedding(self, batch: Batch) -> nn.Tensor:
        """e_t = question + concept + response embeddings (+ fused ratios)."""
        e = nn.add(
            nn.add(nn.embedding_lookup(self.params["embed.question"], batch.question_ids),
                   nn.embedding_lookup(self.params["embed.concept"], batch.concept_ids)),
            nn.embedding_lookup(self.params["embed.response"], batch.correctness))
        if self.config.variant == "statuskt":
            fused = nn.add(nn.matmul(nn.as_tensor(batch.mp_inputs), self.params["mp.proj.weight"]),
                           self.params["mp.proj.bias"])
            e = nn.add(e, fused)
        return e

    def next_question_embedding(self, batch: Batch) -> nn.Tensor:
        nq = shift_left(batch.question_ids)
        nc = shift_left(batch.concept_ids)
        return nn.add(nn.embedding_lookup(self.params["embed.question"], nq),
                      nn.embedding_lookup(self.params["embed.concept"], nc))

    def readout(self, state: nn.Tensor, next_q: nn.Tensor) -> Predictions:
        """All heads as one matmul on their weights and biases side by side."""
        z = nn.concat([state, next_q], axis=-1)
        heads = ["head.correct"]
        if self.config.variant == "statuskt":
            heads += [f"head.mp.{dim}" for dim in DIMENSIONS]
        w = nn.concat([self.params[f"{h}.weight"] for h in heads], axis=-1)
        b = nn.concat([self.params[f"{h}.bias"] for h in heads], axis=-1)
        logits = nn.add(nn.matmul(z, w), b)
        probs = nn.sigmoid(nn.clamp(logits, -LOGIT_CLAMP, LOGIT_CLAMP))
        mp_pred = probs[..., 1:] if self.config.variant == "statuskt" else None
        return Predictions(r_pred=probs[..., 0], mp_pred=mp_pred)

    def forward(self, batch: Batch, training: bool = False,
                rng: np.random.Generator | None = None) -> Predictions:
        raise NotImplementedError

