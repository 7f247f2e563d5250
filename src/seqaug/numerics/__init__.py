from .adam import Adam
from .checkpoint import load_checkpoint, save_checkpoint
from .conv import conv2d, upsample_nearest2d
from .gradcheck import finite_difference_check
from .module import Conv2d, LayerNorm, Linear, Module, param
from .rng import seed_stream
from .tensor import (
    NonScalarLossError,
    ShapeError,
    Tensor,
    add,
    as_tensor,
    backward,
    concat,
    default_dtype,
    div,
    dropout,
    embedding,
    exp,
    layer_norm,
    log,
    matmul,
    mean,
    mul,
    no_grad,
    power,
    precision,
    relu,
    reshape,
    scaled_dot_attention,
    set_finite_checks,
    sigmoid,
    silu,
    softmax,
    softplus,
    sqrt,
    sub,
    sum_,
    swapaxes,
    take,
    toposort,
    transpose,
)
