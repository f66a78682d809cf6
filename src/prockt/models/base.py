"""Shared model machinery: embeddings, fusion, readout heads.

``forward`` returns one (B, T, k) tensor of probabilities. Position t
predicts step t+1: column 0 is the probability of answering question t+1
correctly and, in the statuskt variant (k = 5), columns 1-4 are the
proficiency ratios of step t+1 in ``DIMENSIONS`` order; the original
variant has k = 1. Inputs at position t never include anything from step
t+1 except the identity of its question and concept.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batches import Batch, shift_left
from ..data.schema import DIMENSIONS
from .config import ModelConfig

LOGIT_CLAMP = 15.0


class KTModel:
    """Base class: owns parameters, embeddings, fusion, and heads."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, nn.Tensor] = {}
        d = config.embed_dim
        self._add("embed.question", (config.num_questions + 1, d), fan_in=d)
        self._add("embed.concept", (config.num_concepts + 1, d), fan_in=d)
        self._add("embed.response", (2, d), fan_in=d)
        heads = ["head.correct"]
        if config.variant == "statuskt":
            self._add("mp.proj.weight", (8, d))
            self._add_zeros("mp.proj.bias", (d,))
            heads += [f"head.mp.{dim}" for dim in DIMENSIONS]
        # column j is head j, drawn from the rng named after the weight it had
        # when each head was a parameter of its own, so its values are unchanged
        columns = [nn.init.uniform_fan_in(config.seed, f"{h}.weight", (2 * d, 1)).data
                   for h in heads]
        self.params["head.weight"] = nn.Tensor(np.hstack(columns), requires_grad=True)
        self._add_zeros("head.bias", (len(heads),))

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

    # -- shared forward pieces -------------------------------------------

    def _check_batch(self, batch: Batch) -> None:
        T = batch.question_ids.shape[1]
        if T > self.config.max_len:
            raise nn.ShapeError(
                f"batch length {T} exceeds model max_len {self.config.max_len}")

    def _dropout_mask(self, shape: tuple[int, ...], training: bool,
                      rng: np.random.Generator | None) -> np.ndarray | None:
        """Inverted-dropout multiplier drawn at the activation's own ``shape``;
        None when nothing is dropped (eval mode or a zero rate)."""
        rate = self.config.dropout
        if not training or rate == 0.0:
            return None
        if rng is None:
            raise ValueError("dropout in training mode needs an rng")
        u = rng.random(shape)
        np.greater_equal(u, rate, out=u)  # the mask is written over its uniforms
        u *= 1.0 / (1.0 - rate)
        return u

    def interaction_embedding(self, batch: Batch, training: bool,
                              rng: np.random.Generator | None, extra=()) -> nn.Tensor:
        """e_t = question + concept + response embeddings (+ fused ratios),
        then the ``nn.embed`` terms in ``extra``, with dropout, as one node."""
        terms = [(self.params["embed.question"], batch.question_ids),
                 (self.params["embed.concept"], batch.concept_ids),
                 (self.params["embed.response"], batch.correctness)]
        if self.config.variant == "statuskt":
            terms.append((batch.mp_inputs, self.params["mp.proj.weight"],
                          self.params["mp.proj.bias"]))
        shape = (*batch.question_ids.shape, self.config.embed_dim)
        return nn.embed(terms + list(extra), self._dropout_mask(shape, training, rng))

    def next_question_embedding(self, batch: Batch) -> nn.Tensor:
        return nn.embed([(self.params["embed.question"], shift_left(batch.question_ids)),
                         (self.params["embed.concept"], shift_left(batch.concept_ids))])

    def readout(self, state: nn.Tensor, next_q: nn.Tensor) -> nn.Tensor:
        return nn.readout(state, next_q, self.params["head.weight"], self.params["head.bias"],
                          LOGIT_CLAMP)

    def forward(self, batch: Batch, training: bool = False,
                rng: np.random.Generator | None = None) -> nn.Tensor:
        raise NotImplementedError

