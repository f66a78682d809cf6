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
    lstm,
    matmul,
    no_grad,
    relu,
    sigmoid,
    slice_,
)
from .losses import PROB_EPS, composite_loss
from .optim import Adam
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import check_gradients, numeric_gradient
from . import init
from .heap import keep_heap

keep_heap()

__all__ = [
    "Adam", "PROB_EPS", "ShapeError", "Tensor", "add", "as_tensor", "attention",
    "check_gradients", "clamp", "composite_loss", "concat", "dropout", "embedding_lookup",
    "init", "layer_norm", "load_checkpoint", "lstm", "matmul", "no_grad",
    "numeric_gradient", "relu", "save_checkpoint", "sigmoid", "slice_",
]
