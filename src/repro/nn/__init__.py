"""Pure-NumPy neural-network engine: the model substrate for TinyMLOps.

Public surface::

    from repro.nn import Sequential, Dense, Conv2D, make_mlp, ...
"""

from .activations import get_activation, log_softmax, softmax
from .initializers import get_initializer
from .layers import (
    Activation,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
)
from .losses import (
    binary_cross_entropy,
    distillation_loss,
    get_loss,
    mae,
    mse,
    softmax_cross_entropy,
)
from .metrics import (
    accuracy,
    agreement,
)
from .model import Sequential, batch_iterator
from .optimizers import SGD, Adam, Momentum, Optimizer, get_optimizer
from .zoo import (
    make_autoencoder,
    make_depthwise_cnn,
    make_mlp,
    make_multi_fidelity_family,
    make_tiny_cnn,
)

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "DepthwiseConv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "BatchNorm",
    "Dropout",
    "Flatten",
    "Activation",
    "Sequential",
    "batch_iterator",
    "SGD",
    "Momentum",
    "Adam",
    "Optimizer",
    "get_optimizer",
    "get_activation",
    "get_initializer",
    "get_loss",
    "softmax",
    "log_softmax",
    "softmax_cross_entropy",
    "mse",
    "mae",
    "binary_cross_entropy",
    "distillation_loss",
    "accuracy",
    "agreement",
    "make_mlp",
    "make_tiny_cnn",
    "make_depthwise_cnn",
    "make_autoencoder",
    "make_multi_fidelity_family",
]
