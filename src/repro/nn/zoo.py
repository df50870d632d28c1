"""Model factories ("model zoo") used across examples, tests and benchmarks.

The zoo provides small architectures representative of TinyML workloads:

* ``make_mlp`` — tabular / sensor classification.
* ``make_tiny_cnn`` — image-like classification (synthetic digits).
* ``make_depthwise_cnn`` — MobileNet-style depthwise-separable CNN, the
  canonical edge vision architecture.
* ``make_autoencoder`` — anomaly detection for predictive maintenance.
* ``make_multi_fidelity_family`` — a family of models trading accuracy for
  size/latency, used by context-aware model selection (paper Section III-A).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .layers import (
    Activation,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
)
from .model import Sequential

__all__ = [
    "make_mlp",
    "make_tiny_cnn",
    "make_depthwise_cnn",
    "make_autoencoder",
    "make_multi_fidelity_family",
]


def make_mlp(
    input_dim: int,
    num_classes: int,
    hidden: Sequence[int] = (64, 32),
    dropout: float = 0.0,
    seed: int = 0,
    name: str = "mlp",
) -> Sequential:
    """Multi-layer perceptron for tabular / sensor-feature classification."""
    layers = []
    for i, width in enumerate(hidden):
        layers.append(Dense(width, activation="relu", name=f"dense_{i}"))
        if dropout > 0:
            layers.append(Dropout(dropout, seed=seed + i, name=f"dropout_{i}"))
    layers.append(Dense(num_classes, activation=None, name="logits"))
    return Sequential(layers, input_shape=(input_dim,), seed=seed, name=name)


def make_tiny_cnn(
    input_shape: Tuple[int, int, int],
    num_classes: int,
    filters: Sequence[int] = (8, 16),
    dense_width: int = 32,
    use_batchnorm: bool = True,
    seed: int = 0,
    name: str = "tiny_cnn",
) -> Sequential:
    """Small convolutional classifier for image-like inputs."""
    layers: List = []
    for i, f in enumerate(filters):
        layers.append(Conv2D(f, kernel_size=3, padding="same", activation=None, name=f"conv_{i}"))
        if use_batchnorm:
            layers.append(BatchNorm(name=f"bn_{i}"))
        layers.append(Activation("relu", name=f"relu_{i}"))
        layers.append(MaxPool2D(2, name=f"pool_{i}"))
    layers.append(Flatten(name="flatten"))
    layers.append(Dense(dense_width, activation="relu", name="dense"))
    layers.append(Dense(num_classes, activation=None, name="logits"))
    return Sequential(layers, input_shape=input_shape, seed=seed, name=name)


def make_depthwise_cnn(
    input_shape: Tuple[int, int, int],
    num_classes: int,
    width_multiplier: float = 1.0,
    blocks: int = 2,
    seed: int = 0,
    name: str = "depthwise_cnn",
) -> Sequential:
    """MobileNet-style depthwise-separable CNN.

    ``width_multiplier`` scales every channel count, giving a simple knob for
    generating models of different computational cost (paper Section III-A:
    multiple model variants for heterogeneous devices).
    """
    def ch(base: int) -> int:
        return max(4, int(round(base * width_multiplier)))

    layers: List = [
        Conv2D(ch(8), kernel_size=3, stride=1, padding="same", activation=None, name="stem"),
        BatchNorm(name="stem_bn"),
        Activation("relu6", name="stem_act"),
    ]
    channels = ch(8)
    for b in range(blocks):
        out_ch = ch(8 * (2 ** (b + 1)))
        layers.extend(
            [
                DepthwiseConv2D(kernel_size=3, padding="same", activation=None, name=f"dw_{b}"),
                BatchNorm(name=f"dw_bn_{b}"),
                Activation("relu6", name=f"dw_act_{b}"),
                Conv2D(out_ch, kernel_size=1, padding="same", activation=None, name=f"pw_{b}"),
                BatchNorm(name=f"pw_bn_{b}"),
                Activation("relu6", name=f"pw_act_{b}"),
                MaxPool2D(2, name=f"pool_{b}"),
            ]
        )
        channels = out_ch
    layers.append(GlobalAvgPool2D(name="gap"))
    layers.append(Dense(num_classes, activation=None, name="logits"))
    return Sequential(layers, input_shape=input_shape, seed=seed, name=name)


def make_autoencoder(
    input_dim: int,
    bottleneck: int = 4,
    hidden: int = 32,
    seed: int = 0,
    name: str = "autoencoder",
) -> Sequential:
    """Dense autoencoder used for on-device anomaly detection.

    Reconstruction error on a sample serves as its anomaly score — the
    predictive-maintenance personalization scenario of paper Section III-D.
    """
    layers = [
        Dense(hidden, activation="relu", name="enc_1"),
        Dense(bottleneck, activation="relu", name="bottleneck"),
        Dense(hidden, activation="relu", name="dec_1"),
        Dense(input_dim, activation=None, name="recon"),
    ]
    return Sequential(layers, input_shape=(input_dim,), seed=seed, name=name)


def make_multi_fidelity_family(
    input_dim: int,
    num_classes: int,
    widths: Sequence[Tuple[int, ...]] = ((16,), (32, 16), (64, 32), (128, 64, 32)),
    seed: int = 0,
    base_name: str = "family",
) -> Dict[str, Sequential]:
    """Create a family of MLPs of increasing capacity.

    Returns a dict ``{variant_name: model}`` ordered from smallest to
    largest.  Used by E10 (context-aware model selection) and by the model
    registry experiments (E3): each fidelity is a separately tracked variant
    of the same logical model.
    """
    family: Dict[str, Sequential] = {}
    for i, hidden in enumerate(widths):
        name = f"{base_name}-f{i}"
        family[name] = make_mlp(
            input_dim,
            num_classes,
            hidden=hidden,
            seed=seed + i,
            name=name,
        )
    return family
