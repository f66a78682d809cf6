"""Epoch loop with Adam, validation-AUC early stopping, and history."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..data.batches import Batch
from ..models.base import KTModel
from ..nn import composite_loss
from .metrics import Metrics, evaluate

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    alpha: float = 0.5
    lr: float = 1e-3
    lr_grid: tuple[float, ...] = (5e-3, 1e-3, 5e-4, 1e-4)
    dropout_grid: tuple[float, ...] = (0.5, 0.3, 0.1, 0.05)
    batch_size: int = 16
    patience: int = 10
    max_epochs: int = 200
    seed: int = 42

    def __post_init__(self):
        if not self.lr_grid or not self.dropout_grid:
            raise ValueError("hyperparameter grids must be non-empty")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_auc: float
    val_acc: float


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = float("-inf")
    epochs_trained: int = 0

    def restore_into(self, model: KTModel) -> None:
        for name, data in self.best_params.items():
            model.params[name].data = data.copy()


def _nan_dump(batch: Batch, preds_data: np.ndarray) -> str:
    return (f"question_ids range [{batch.question_ids.min()}, {batch.question_ids.max()}], "
            f"supervised positions {int(batch.target_mask.sum())}, "
            f"r_pred range [{preds_data.min():.3e}, {preds_data.max():.3e}]")


def train(model: KTModel, train_batches: list[Batch], val_batches: list[Batch],
          config: TrainConfig) -> TrainResult:
    """Optimize the composite loss; return the best-validation-AUC checkpoint.

    Training halts when validation AUC has not improved for ``patience``
    consecutive epochs or ``max_epochs`` is reached. Fully deterministic
    under ``config.seed``.
    """
    opt = nn.Adam(model.parameters(), lr=config.lr)
    result = TrainResult(best_params={n: p.data.copy() for n, p in model.parameters().items()})
    epochs_since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        rng = nn.init.named_rng(config.seed, f"epoch-{epoch}")
        order = rng.permutation(len(train_batches))
        losses = []
        for bi in order:
            batch = train_batches[bi]
            preds = model.forward(batch, training=True, rng=rng)
            loss = composite_loss(batch.targets_correct, preds.r_pred,
                                  batch.targets_mp, preds.mp_pred,
                                  batch.target_mp_mask, batch.target_mask,
                                  config.alpha)
            value = loss.item()
            if not math.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {bi}: "
                    + _nan_dump(batch, preds.r_pred.data))
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(value)

        val = evaluate(model, val_batches)
        stats = EpochStats(epoch=epoch, train_loss=float(np.mean(losses)),
                           val_auc=val.auc, val_acc=val.acc)
        result.history.append(stats)
        result.epochs_trained = epoch
        improved = math.isfinite(val.auc) and val.auc > result.best_val_auc
        if improved:
            result.best_val_auc = val.auc
            result.best_epoch = epoch
            result.best_params = {n: p.data.copy() for n, p in model.parameters().items()}
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        log.debug("epoch %d: loss %.4f, val auc %.4f, val acc %.4f",
                  epoch, stats.train_loss, stats.val_auc, stats.val_acc)
        if epochs_since_best >= config.patience:
            break

    result.restore_into(model)
    return result
