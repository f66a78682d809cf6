"""Hyperparameter grid search over (learning rate, dropout)."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable

from ..data.batches import Batch
from ..models.base import KTModel
from .loop import TrainConfig, TrainResult, train

log = logging.getLogger(__name__)


@dataclass
class GridCell:
    lr: float
    dropout: float
    val_auc: float
    val_acc: float
    epochs_trained: int


@dataclass
class GridResult:
    best_lr: float
    best_dropout: float
    best_result: TrainResult
    best_model: KTModel
    table: list[GridCell]


def grid_search(model_factory: Callable[[float], KTModel],
                train_batches: list[Batch], val_batches: list[Batch],
                config: TrainConfig) -> GridResult:
    """Train one model per grid cell and select by validation AUC.

    ``model_factory(dropout)`` must return a newly initialized model.
    Test data is deliberately not an argument: the caller evaluates the
    selected model exactly once, after selection.
    """
    table: list[GridCell] = []
    best: GridResult | None = None
    for lr in config.lr_grid:
        for dropout in config.dropout_grid:
            model = model_factory(dropout)
            result = train(model, train_batches, val_batches,
                           replace(config, lr=lr))
            last = result.history[result.best_epoch - 1] if result.best_epoch > 0 else None
            cell = GridCell(lr=lr, dropout=dropout, val_auc=result.best_val_auc,
                            val_acc=last.val_acc if last else float("nan"),
                            epochs_trained=result.epochs_trained)
            table.append(cell)
            log.info("grid cell lr=%g dropout=%g: val auc %.4f (%d epochs)",
                     lr, dropout, cell.val_auc, cell.epochs_trained)
            if best is None or result.best_val_auc > best.best_result.best_val_auc:
                best = GridResult(best_lr=lr, best_dropout=dropout,
                                  best_result=result, best_model=model, table=table)
    assert best is not None
    return best
