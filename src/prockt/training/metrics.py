"""Evaluation metrics over supervised positions."""

from __future__ import annotations

import math
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


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, tied values sharing their mean rank.

    Tied sorted positions ``start..end-1`` share the rank
    ``(start + end + 1) / 2``, an exact half-integer, so the ranks equal
    ``scipy.stats.rankdata(method="average")`` bit for bit.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _rank_auc(ranks: np.ndarray, pos: np.ndarray, n_pos: int, n_neg: int) -> float:
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc(labels, scores) -> float:
    """Rank-statistic (Mann-Whitney) AUC with tie averaging.

    Equals P(score_pos > score_neg) + 0.5 * P(tie), from the midranks of the
    scores. Returns NaN for single-class input (undefined) and for scores
    that hold a NaN.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0 or np.isnan(s).any():
        return float("nan")
    return _rank_auc(_midranks(s), y == 1, n_pos, n_neg)


def delong(labels, scores_a, scores_b) -> dict:
    """Paired DeLong test of two AUCs over the same positions.

    DeLong, DeLong & Clarke-Pearson (1988), computed from midranks as Sun &
    Xu (2014) do. Returns ``auc_a`` and ``auc_b``, each equal to ``auc``'s
    bit for bit; ``diff``, auc_a - auc_b; its standard error ``se``; and
    ``p``, the two-sided normal p of diff / se, None when se is 0 (as for
    equal score vectors). Needs two positives, two negatives and no NaN score.
    """
    y = np.asarray(labels)
    pos = y == 1
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos < 2 or n_neg < 2:
        raise ValueError(f"delong needs two positives and two negatives, got {n_pos} and {n_neg}")
    aucs, v10, v01 = [], [], []
    for scores in (scores_a, scores_b):
        s = np.asarray(scores, dtype=float)
        if np.isnan(s).any():
            raise ValueError("delong: a score is NaN")
        ranks = _midranks(s)
        aucs.append(_rank_auc(ranks, pos, n_pos, n_neg))
        # placement values: each positive's share of the negatives below it,
        # each negative's share of the positives above it, a tie counting 1/2
        v10.append((ranks[pos] - _midranks(s[pos])) / n_neg)
        v01.append(1.0 - (ranks[~pos] - _midranks(s[~pos])) / n_pos)
    var = np.var(v10[0] - v10[1], ddof=1) / n_pos + np.var(v01[0] - v01[1], ddof=1) / n_neg
    diff, se = aucs[0] - aucs[1], math.sqrt(var)
    p = math.erfc(abs(diff) / (se * math.sqrt(2.0))) if se > 0.0 else None
    return {"auc_a": aucs[0], "auc_b": aucs[1], "diff": diff, "se": se, "p": p}


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
