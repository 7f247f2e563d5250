from .adam import Adam
from .checkpoint import load_checkpoint, save_checkpoint
from .conv import conv2d, frozen_weights, upsample_nearest2d
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
    dropout,
    embedding,
    layer_norm,
    matmul,
    mean,
    mul,
    no_grad,
    precision,
    relu,
    reshape,
    scaled_dot_attention,
    scatter,
    silu,
    softmax,
    softplus,
    sub,
    sum_,
    swapaxes,
    take,
    toposort,
    transpose,
)
