from .tensor import (
    ShapeError,
    Tensor,
    add,
    as_tensor,
    clamp,
    concat,
    dropout,
    embedding_lookup,
    exp,
    log,
    lstm,
    masked_mean,
    matmul,
    mean,
    mul,
    power,
    relu,
    reshape,
    sigmoid,
    slice_,
    softmax,
    sum_,
    tanh,
    transpose,
)
from .losses import PROB_EPS, bce, masked_mse
from .optim import Adam
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import check_gradients, numeric_gradient
from . import init
from .heap import keep_heap

keep_heap()

__all__ = [
    "Adam", "PROB_EPS", "ShapeError", "Tensor", "add", "as_tensor", "bce",
    "check_gradients", "clamp", "concat", "dropout", "embedding_lookup", "exp",
    "init", "load_checkpoint", "log", "lstm", "masked_mean", "masked_mse", "matmul",
    "mean", "mul", "numeric_gradient", "power", "relu", "reshape", "save_checkpoint",
    "sigmoid", "slice_", "softmax", "sum_", "tanh", "transpose",
]
