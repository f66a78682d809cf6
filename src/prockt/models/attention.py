"""Attention backbone: one causal self-attention block.

Queries come from the next question's embedding; keys and values from
past interaction embeddings. The mask is strictly causal: the query at
position t (predicting step t+1) attends to key positions <= t only.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batches import Batch
from .base import KTModel, Predictions
from .config import ModelConfig

MASK_FILL = -1e9
LAYER_NORM_EPS = 1e-5


class AttentionKT(KTModel):
    def __init__(self, config: ModelConfig):
        super().__init__(config)
        d = config.embed_dim
        self._add("embed.position", (config.max_len, d), fan_in=d)
        for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
            self._add(name, (d, d))
        self._add("ffn.w1", (d, d))
        self._add_zeros("ffn.b1", (d,))
        self._add("ffn.w2", (d, d))
        self._add_zeros("ffn.b2", (d,))
        for name in ("ln1", "ln2"):
            self._add_ones(f"{name}.gain", (d,))
            self._add_zeros(f"{name}.bias", (d,))

    def forward(self, batch: Batch, training: bool = False,
                rng: np.random.Generator | None = None) -> Predictions:
        self._check_batch(batch)
        cfg = self.config
        B, T = batch.question_ids.shape

        pos = nn.embedding_lookup(self.params["embed.position"],
                                  np.broadcast_to(np.arange(T), (B, T)))
        x = nn.add(self.interaction_embedding(batch), pos)
        x = nn.dropout(x, self._dropout_mask(x.shape, training, rng))
        next_q = self.next_question_embedding(batch)

        q = nn.matmul(next_q, self.params["attn.wq"])
        k = nn.matmul(x, self.params["attn.wk"])
        v = nn.matmul(x, self.params["attn.wv"])
        causal = np.tril(np.ones((T, T), dtype=bool))
        key_valid = batch.valid_mask.astype(bool)[:, None, None, :]
        bias = np.where(causal[None, None, :, :] & key_valid, 0.0, MASK_FILL)
        weight_mask = self._dropout_mask((B, cfg.attention_heads, T, T), training, rng)
        ctx = nn.attention(q, k, v, bias, cfg.attention_heads, weight_mask)  # (B, T, d)
        ctx = nn.matmul(ctx, self.params["attn.wo"])

        h1 = nn.layer_norm(nn.add(ctx, next_q), self.params["ln1.gain"],
                           self.params["ln1.bias"], LAYER_NORM_EPS)
        f = nn.add(nn.matmul(nn.relu(nn.add(nn.matmul(h1, self.params["ffn.w1"]),
                                            self.params["ffn.b1"])),
                             self.params["ffn.w2"]),
                   self.params["ffn.b2"])
        f = nn.dropout(f, self._dropout_mask(f.shape, training, rng))
        state = nn.layer_norm(nn.add(f, h1), self.params["ln2.gain"],
                              self.params["ln2.bias"], LAYER_NORM_EPS)
        return self.readout(state, next_q)
