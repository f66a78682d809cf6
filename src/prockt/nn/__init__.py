from .tensor import (
    ShapeError,
    Tensor,
    add,
    as_tensor,
    attention,
    clamp,
    concat,
    dropout,
    embedding_lookup,
    layer_norm,
    log,
    lstm,
    masked_mean,
    matmul,
    mul,
    relu,
    sigmoid,
    slice_,
)
from .losses import PROB_EPS, bce, masked_mse
from .optim import Adam
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import check_gradients, numeric_gradient
from . import init
from .heap import keep_heap

keep_heap()

__all__ = [
    "Adam", "PROB_EPS", "ShapeError", "Tensor", "add", "as_tensor", "attention", "bce",
    "check_gradients", "clamp", "concat", "dropout", "embedding_lookup", "init",
    "layer_norm", "load_checkpoint", "log", "lstm", "masked_mean", "masked_mse", "matmul",
    "mul", "numeric_gradient", "relu", "save_checkpoint", "sigmoid", "slice_",
]
