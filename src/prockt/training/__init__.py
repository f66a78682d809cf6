from .metrics import Metrics, acc, auc, delong, evaluate, gather_predictions
from .loop import EpochStats, TrainConfig, TrainResult, train
from .grid import GRID, GridCell, GridResult, grid_search

__all__ = [
    "EpochStats", "GRID", "GridCell", "GridResult", "Metrics", "TrainConfig",
    "TrainResult", "acc", "auc", "delong", "evaluate",
    "gather_predictions", "grid_search", "train",
]
