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
    batch_size: int = 16
    patience: int = 10
    max_epochs: int = 200
    seed: int = 42

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not self.alpha >= 0:  # NaN too
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.lr < float("inf"):  # 0 trains nothing: a frozen control
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")


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


def _nan_dump(batch: Batch, p_correct: np.ndarray) -> str:
    return (f"question_ids range [{batch.question_ids.min()}, {batch.question_ids.max()}], "
            f"supervised positions {int(batch.target_mask.sum())}, "
            f"P(correct) range [{p_correct.min():.3e}, {p_correct.max():.3e}]")


def _step(model: KTModel, opt: nn.Adam, batch: Batch, rng: np.random.Generator,
          alpha: float, where: str) -> float:
    """One training step (forward, loss, backward, Adam); return the loss.

    Only this frame references the step's graph, so the graph is freed when
    the step returns, before the next forward builds one; the gradients are
    cleared as soon as Adam has used them.
    """
    probs = model.forward(batch, training=True, rng=rng)
    loss = composite_loss(batch.targets_correct, probs, batch.targets_mp,
                          batch.target_mp_mask, batch.target_mask, alpha)
    value = loss.item()
    if not math.isfinite(value):
        raise RuntimeError(f"non-finite loss at {where}: "
                           + _nan_dump(batch, probs.data[..., 0]))
    loss.backward()
    opt.step()
    opt.zero_grad()
    return value


def train(model: KTModel, train_batches: list[Batch], val_batches: list[Batch],
          config: TrainConfig) -> TrainResult:
    """Optimize the composite loss; return the best-validation-AUC checkpoint.

    Training halts when validation AUC has not improved for ``patience``
    consecutive epochs or ``max_epochs`` is reached. Fully deterministic
    under ``config.seed``. At most one step's graph is alive at a time:
    each is freed before the next forward and before validation. No
    parameter holds a gradient between steps or after training.
    """
    opt = nn.Adam(model.parameters(), lr=config.lr)
    opt.zero_grad()  # a caller's stale gradients must not reach the first step
    result = TrainResult(best_params={n: p.data.copy() for n, p in model.parameters().items()})
    epochs_since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        rng = nn.init.named_rng(config.seed, f"epoch-{epoch}")
        order = rng.permutation(len(train_batches))
        losses = [_step(model, opt, train_batches[bi], rng, config.alpha,
                        f"epoch {epoch}, batch {bi}") for bi in order]
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
