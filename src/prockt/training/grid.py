"""Hyperparameter search over (learning rate, dropout) cells."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from ..data.batches import Batch
from ..models.base import KTModel
from .loop import TrainConfig, TrainResult, train

log = logging.getLogger(__name__)

# the 16 (learning rate, dropout) cells in search order, learning rate outer
GRID = tuple((lr, dropout) for lr in (5e-3, 1e-3, 5e-4, 1e-4)
             for dropout in (0.5, 0.3, 0.1, 0.05))


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
                config: TrainConfig, cells: Iterable[tuple[float, float]]) -> GridResult:
    """Train one model per (lr, dropout) cell, in order; select by validation AUC.

    ``model_factory(dropout)`` must return a newly initialized model. The
    first cell wins ties. Test data is deliberately not an argument: the
    caller evaluates the selected model exactly once, after selection.
    """
    table: list[GridCell] = []
    best: GridResult | None = None
    for lr, dropout in cells:
        model = model_factory(dropout)
        result = train(model, train_batches, val_batches, replace(config, lr=lr))
        last = result.history[result.best_epoch - 1] if result.best_epoch > 0 else None
        cell = GridCell(lr=lr, dropout=dropout, val_auc=result.best_val_auc,
                        val_acc=last.val_acc if last else float("nan"),
                        epochs_trained=result.epochs_trained)
        table.append(cell)
        log.info("cell lr=%g dropout=%g: val auc %.4f (%d epochs)",
                 lr, dropout, cell.val_auc, cell.epochs_trained)
        if best is None or result.best_val_auc > best.best_result.best_val_auc:
            best = GridResult(best_lr=lr, best_dropout=dropout,
                              best_result=result, best_model=model, table=table)
    if best is None:
        raise ValueError("grid_search needs at least one (lr, dropout) cell")
    return best
