from .tensor import (
    ShapeError,
    Tensor,
    as_tensor,
    attention,
    embed,
    feed_forward,
    layer_norm,
    lstm,
    matmul,
    no_grad,
    readout,
)
from .losses import PROB_EPS, composite_loss
from .optim import Adam
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import check_gradients, numeric_gradient
from . import init
from .heap import keep_heap

keep_heap()

__all__ = [
    "Adam", "PROB_EPS", "ShapeError", "Tensor", "as_tensor", "attention", "check_gradients",
    "composite_loss", "embed", "feed_forward", "init", "layer_norm", "load_checkpoint", "lstm",
    "matmul", "no_grad", "numeric_gradient", "readout", "save_checkpoint",
]
