"""Evaluation metrics over supervised positions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.batches import Batch
from ..data.schema import DIMENSIONS
from ..models.base import KTModel


@dataclass
class Metrics:
    auc: float
    acc: float
    n_predictions: int
    mp_mse: dict[str, float] | None = None

    def to_json(self) -> dict:
        doc = {"auc": self.auc, "acc": self.acc, "n_predictions": self.n_predictions}
        if self.mp_mse is not None:
            doc["mp_mse"] = dict(self.mp_mse)
        return doc


def auc(labels, scores) -> float:
    """Rank-statistic (Mann-Whitney) AUC with tie averaging.

    Equals P(score_pos > score_neg) + 0.5 * P(tie). Returns NaN for
    single-class input (undefined) and for scores that hold a NaN. Tied
    sorted positions ``start..end-1`` share the 1-based rank
    ``(start + end + 1) / 2``, an exact half-integer, so the ranks equal
    ``scipy.stats.rankdata(method="average")`` bit for bit.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    if np.isnan(ordered[-1]):  # a sort puts any NaN last
        return float("nan")
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    pos_rank_sum = ranks[y == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def acc(labels, scores) -> float:
    """Accuracy at threshold 0.5; a score of exactly 0.5 counts as positive."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    if y.size == 0:
        raise ValueError("acc needs at least one prediction")
    return float(np.mean((s >= 0.5) == (y == 1)))


def gather_predictions(model: KTModel, batches: list[Batch]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten supervised positions across batches.

    Returns (labels, scores, mp_targets, mp_preds, mp_masks); the MP
    arrays are empty for original-variant models. Builds no graph.
    """
    labels, scores = [], []
    mp_t, mp_p, mp_m = [], [], []
    for batch in batches:
        with nn.no_grad():
            probs = model.forward(batch, training=False).data
        mask = batch.target_mask.astype(bool)
        labels.append(batch.targets_correct[mask])
        scores.append(probs[..., 0][mask])
        if probs.shape[-1] > 1:
            mp_t.append(batch.targets_mp[mask])
            mp_p.append(probs[..., 1:][mask])
            mp_m.append(batch.target_mp_mask[mask])
    cat = lambda parts, width: (np.concatenate(parts) if parts
                                else np.zeros((0, width) if width else 0))
    return (cat(labels, 0), cat(scores, 0), cat(mp_t, 4), cat(mp_p, 4), cat(mp_m, 4))


def evaluate(model: KTModel, batches: list[Batch]) -> Metrics:
    labels, scores, mp_t, mp_p, mp_m = gather_predictions(model, batches)
    mp_mse = None
    if mp_p.size:
        mp_mse = {}
        for i, d in enumerate(DIMENSIONS):
            m = mp_m[:, i] > 0
            mp_mse[d] = float(np.mean((mp_t[m, i] - mp_p[m, i]) ** 2)) if m.any() else 0.0
    return Metrics(auc=auc(labels, scores), acc=acc(labels, scores),
                   n_predictions=int(labels.size), mp_mse=mp_mse)
