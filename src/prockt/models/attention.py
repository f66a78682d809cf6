"""Attention backbone: one causal self-attention block.

Queries come from the next question's embedding; keys and values from
past interaction embeddings. The mask is strictly causal: the query at
position t (predicting step t+1) attends to key positions <= t only.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batches import Batch
from .base import KTModel, Predictions, layer_norm
from .config import ModelConfig

MASK_FILL = -1e9


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

    def _split_heads(self, x: nn.Tensor, B: int, T: int) -> nn.Tensor:
        cfg = self.config
        return nn.transpose(nn.reshape(x, (B, T, cfg.attention_heads, cfg.head_dim)),
                            (0, 2, 1, 3))

    def forward(self, batch: Batch, training: bool = False,
                rng: np.random.Generator | None = None) -> Predictions:
        self._check_batch(batch)
        cfg = self.config
        B, T = batch.question_ids.shape

        pos = nn.embedding_lookup(self.params["embed.position"],
                                  np.broadcast_to(np.arange(T), (B, T)))
        x = nn.add(self.interaction_embedding(batch), pos)
        x = self._dropout(x, training, rng)
        next_q = self.next_question_embedding(batch)

        q = self._split_heads(nn.matmul(next_q, self.params["attn.wq"]), B, T)
        k = self._split_heads(nn.matmul(x, self.params["attn.wk"]), B, T)
        v = self._split_heads(nn.matmul(x, self.params["attn.wv"]), B, T)

        scores = nn.mul(nn.matmul(q, nn.transpose(k, (0, 1, 3, 2))),
                        1.0 / np.sqrt(cfg.head_dim))
        causal = np.tril(np.ones((T, T), dtype=bool))
        key_valid = batch.valid_mask.astype(bool)[:, None, None, :]
        allowed = causal[None, None, :, :] & key_valid
        bias = np.where(allowed, 0.0, MASK_FILL)
        weights = nn.softmax(nn.add(scores, bias))
        weights = self._dropout(weights, training, rng)

        ctx = nn.matmul(weights, v)  # (B, h, T, dh)
        ctx = nn.reshape(nn.transpose(ctx, (0, 2, 1, 3)), (B, T, cfg.embed_dim))
        ctx = nn.matmul(ctx, self.params["attn.wo"])

        h1 = layer_norm(nn.add(ctx, next_q), self.params["ln1.gain"], self.params["ln1.bias"])
        f = nn.add(nn.matmul(nn.relu(nn.add(nn.matmul(h1, self.params["ffn.w1"]),
                                            self.params["ffn.b1"])),
                             self.params["ffn.w2"]),
                   self.params["ffn.b2"])
        f = self._dropout(f, training, rng)
        state = layer_norm(nn.add(f, h1), self.params["ln2.gain"], self.params["ln2.bias"])
        return self.readout(state, next_q)
