"""Recurrent backbone: single-layer LSTM over interaction embeddings, one
``nn.lstm`` node that takes its own input projection and output dropout."""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batches import Batch
from .base import KTModel
from .config import ModelConfig


class RecurrentKT(KTModel):
    def __init__(self, config: ModelConfig):
        super().__init__(config)
        d = config.embed_dim
        self._add("rnn.wx", (d, 4 * d))
        self._add("rnn.wh", (d, 4 * d))
        self._add_zeros("rnn.b", (4 * d,))

    def forward(self, batch: Batch, training: bool = False,
                rng: np.random.Generator | None = None) -> nn.Tensor:
        self._check_batch(batch)
        x = self.interaction_embedding(batch, training, rng)
        state = nn.lstm(x, *(self.params[f"rnn.{n}"] for n in ("wx", "wh", "b")),
                        self._dropout_mask(x.shape, training, rng))  # (B, T, d)
        return self.readout(state, self.next_question_embedding(batch))
