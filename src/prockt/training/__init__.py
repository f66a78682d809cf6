from ..nn import composite_loss
from .metrics import Metrics, acc, auc, evaluate, gather_predictions
from .loop import EpochStats, TrainConfig, TrainResult, train
from .grid import GridCell, GridResult, grid_search

__all__ = [
    "EpochStats", "GridCell", "GridResult", "Metrics", "TrainConfig",
    "TrainResult", "acc", "auc", "composite_loss", "evaluate",
    "gather_predictions", "grid_search", "train",
]
