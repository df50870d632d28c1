"""Neural-network layers with explicit forward/backward passes.

The engine is intentionally framework-free: every layer is a small object
holding its parameters in a ``params`` dict and the corresponding gradients
in a ``grads`` dict.  Backpropagation is driven by
:class:`repro.nn.model.Sequential`, which calls ``forward`` on every layer in
order and ``backward`` in reverse order.

Convolutions use an im2col formulation so the hot path is a single large
matrix multiplication (vectorized, cache friendly) rather than nested Python
loops.  Activations cache their forward outputs so gradients can reuse them.

All layers accept inputs in ``NHWC`` layout (batch, height, width, channels)
for image-like data and ``(batch, features)`` for dense data.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

from . import activations as A
from . import initializers as init

__all__ = [
    "Layer",
    "Dense",
    "Activation",
    "Dropout",
    "Flatten",
    "Conv2D",
    "DepthwiseConv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "BatchNorm",
    "im2col",
    "col2im",
]


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Parameters
    are stored in :attr:`params`; after a backward pass the matching
    gradients (same keys, same shapes) are available in :attr:`grads`.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or self.__class__.__name__
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.trainable = True
        self.built = False

    # -- lifecycle -----------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters given the per-example input shape."""
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-example output shape for a given per-example input shape."""
        return input_shape

    # -- compute -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dL/d(output), fill ``self.grads`` and return dL/d(input)."""
        raise NotImplementedError

    # -- utilities -----------------------------------------------------
    def num_params(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r}, params={self.num_params()})"


# ---------------------------------------------------------------------------
# im2col / col2im helpers
# ---------------------------------------------------------------------------

def _pad_nhwc(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)), mode="constant")


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> Tuple[np.ndarray, int, int]:
    """Unfold NHWC input patches into a 2-D matrix.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(batch * out_h * out_w, kh * kw * channels)``.  Built on
    ``sliding_window_view`` so no Python-level loops are involved.
    """
    x = _pad_nhwc(x, pad)
    n, h, w, c = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    # windows shape: (n, h-kh+1, w-kw+1, c, kh, kw)
    windows = windows[:, ::stride, ::stride, :, :, :]
    # reorder to (n, out_h, out_w, kh, kw, c) then flatten patch dims
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    cols = windows.reshape(n * out_h * out_w, kh * kw * c)
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold a column matrix back into an NHWC tensor, accumulating overlaps.

    This is the adjoint of :func:`im2col` and is used in the convolution
    backward pass to produce the gradient with respect to the input.
    """
    n, h, w, c = x_shape
    h_p, w_p = h + 2 * pad, w + 2 * pad
    out_h = (h_p - kh) // stride + 1
    out_w = (w_p - kw) // stride + 1
    patches = cols.reshape(n, out_h, out_w, kh, kw, c)
    x_padded = np.zeros((n, h_p, w_p, c), dtype=cols.dtype)
    # Accumulate each kernel offset with a strided slice; kh*kw iterations of
    # vectorized adds (small constant, e.g. 9 for a 3x3 kernel).
    for i in range(kh):
        for j in range(kw):
            x_padded[:, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :] += patches[:, :, :, i, j, :]
    if pad == 0:
        return x_padded
    return x_padded[:, pad : pad + h, pad : pad + w, :]


# ---------------------------------------------------------------------------
# Dense / Activation / Dropout / Flatten
# ---------------------------------------------------------------------------

class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` with optional fused activation."""

    def __init__(
        self,
        units: int,
        activation: Optional[str] = None,
        use_bias: bool = True,
        kernel_init: str = "he_normal",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError("units must be positive")
        self.units = int(units)
        self.use_bias = bool(use_bias)
        self.activation_name = activation
        self._act = A.get_activation(activation) if activation else None
        self._kernel_init = init.get_initializer(kernel_init)
        self._cache: Dict[str, np.ndarray] = {}

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat per-example input, got {input_shape}")
        in_dim = int(input_shape[0])
        self.params["W"] = self._kernel_init((in_dim, self.units), rng)
        if self.use_bias:
            self.params["b"] = init.zeros((self.units,))
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        z = x @ self.params["W"]
        if self.use_bias:
            z = z + self.params["b"]
        self._cache["x"] = x
        if self._act is not None:
            self._cache["z"] = z
            y = self._act[0](z)
            self._cache["y"] = y
            return y
        return z

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._act is not None:
            grad_out = grad_out * self._act[1](self._cache["z"], self._cache["y"])
        x = self._cache["x"]
        self.grads["W"] = x.T @ grad_out
        if self.use_bias:
            self.grads["b"] = grad_out.sum(axis=0)
        return grad_out @ self.params["W"].T


class Activation(Layer):
    """Standalone activation layer (useful after BatchNorm or Conv2D)."""

    def __init__(self, activation: str, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.activation_name = activation
        self._fn, self._grad = A.get_activation(activation)
        self.trainable = False
        self._cache: Dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y = self._fn(x)
        self._cache["x"] = x
        self._cache["y"] = y
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._grad(self._cache["x"], self._cache["y"])


class Dropout(Layer):
    """Inverted dropout; a no-op at inference time."""

    def __init__(self, rate: float, seed: int = 0, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self.trainable = False
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def spawn_stream(self) -> np.random.Generator:
        """Independent generator cloned at the current mask-stream position.

        ``Sequential.clone`` pickles this layer (generator state included), so
        every per-client model copy draws its masks from exactly this stream
        position.  The vectorized federated trainer clones one stream per
        client the same way, which keeps the batched replay mask-for-mask
        identical to the per-client loop without advancing this layer's own
        generator.
        """
        return copy.deepcopy(self._rng)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Flatten(Layer):
    """Flatten all per-example dimensions into a single feature axis."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.trainable = False
        self._in_shape: Optional[Tuple[int, ...]] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._in_shape is not None
        return grad_out.reshape(self._in_shape)


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

class Conv2D(Layer):
    """2-D convolution (NHWC) implemented via im2col + GEMM."""

    def __init__(
        self,
        filters: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        activation: Optional[str] = None,
        use_bias: bool = True,
        kernel_init: str = "he_normal",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if padding not in ("same", "valid"):
            raise ValueError("padding must be 'same' or 'valid'")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding
        self.activation_name = activation
        self._act = A.get_activation(activation) if activation else None
        self.use_bias = bool(use_bias)
        self._kernel_init = init.get_initializer(kernel_init)
        self._cache: Dict[str, object] = {}

    # -- shapes ---------------------------------------------------------
    def _pad_amount(self) -> int:
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        h, w, _ = input_shape
        p = self._pad_amount()
        out_h = (h + 2 * p - self.kernel_size) // self.stride + 1
        out_w = (w + 2 * p - self.kernel_size) // self.stride + 1
        return (out_h, out_w, self.filters)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (H, W, C) per-example input, got {input_shape}")
        c_in = int(input_shape[-1])
        k = self.kernel_size
        self.params["W"] = self._kernel_init((k, k, c_in, self.filters), rng)
        if self.use_bias:
            self.params["b"] = init.zeros((self.filters,))
        self.built = True

    # -- compute ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self._pad_amount()
        n = x.shape[0]
        cols, out_h, out_w = im2col(x, k, k, s, p)
        w_mat = self.params["W"].reshape(-1, self.filters)
        z = cols @ w_mat
        if self.use_bias:
            z = z + self.params["b"]
        z = z.reshape(n, out_h, out_w, self.filters)
        self._cache.update(x_shape=x.shape, cols=cols)
        if self._act is not None:
            self._cache["z"] = z
            y = self._act[0](z)
            self._cache["y"] = y
            return y
        return z

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._act is not None:
            grad_out = grad_out * self._act[1](self._cache["z"], self._cache["y"])
        k, s, p = self.kernel_size, self.stride, self._pad_amount()
        x_shape: Tuple[int, int, int, int] = self._cache["x_shape"]  # type: ignore[assignment]
        cols: np.ndarray = self._cache["cols"]  # type: ignore[assignment]
        n = grad_out.shape[0]
        grad_mat = grad_out.reshape(n * grad_out.shape[1] * grad_out.shape[2], self.filters)
        self.grads["W"] = (cols.T @ grad_mat).reshape(self.params["W"].shape)
        if self.use_bias:
            self.grads["b"] = grad_mat.sum(axis=0)
        grad_cols = grad_mat @ self.params["W"].reshape(-1, self.filters).T
        return col2im(grad_cols, x_shape, k, k, s, p)


class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution — the workhorse of MobileNet-style edge nets.

    Each input channel is convolved with its own ``k x k`` kernel; no
    cross-channel mixing happens here (that is done by a following 1x1
    :class:`Conv2D`, forming a depthwise-separable block).
    """

    def __init__(
        self,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        activation: Optional[str] = None,
        use_bias: bool = True,
        kernel_init: str = "he_normal",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if padding not in ("same", "valid"):
            raise ValueError("padding must be 'same' or 'valid'")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding
        self.activation_name = activation
        self._act = A.get_activation(activation) if activation else None
        self.use_bias = bool(use_bias)
        self._kernel_init = init.get_initializer(kernel_init)
        self._cache: Dict[str, object] = {}
        self._channels: Optional[int] = None

    def _pad_amount(self) -> int:
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        h, w, c = input_shape
        p = self._pad_amount()
        out_h = (h + 2 * p - self.kernel_size) // self.stride + 1
        out_w = (w + 2 * p - self.kernel_size) // self.stride + 1
        return (out_h, out_w, c)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(f"DepthwiseConv2D expects (H, W, C) input, got {input_shape}")
        c = int(input_shape[-1])
        self._channels = c
        k = self.kernel_size
        self.params["W"] = self._kernel_init((k, k, c), rng)
        if self.use_bias:
            self.params["b"] = init.zeros((c,))
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self._pad_amount()
        n, _, _, c = x.shape
        cols, out_h, out_w = im2col(x, k, k, s, p)
        # cols: (n*oh*ow, k*k*c) -> (n*oh*ow, k*k, c)
        cols3 = cols.reshape(-1, k * k, c)
        w = self.params["W"].reshape(k * k, c)
        z = np.einsum("pkc,kc->pc", cols3, w, optimize=True)
        if self.use_bias:
            z = z + self.params["b"]
        z = z.reshape(n, out_h, out_w, c)
        self._cache.update(x_shape=x.shape, cols3=cols3)
        if self._act is not None:
            self._cache["z"] = z
            y = self._act[0](z)
            self._cache["y"] = y
            return y
        return z

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._act is not None:
            grad_out = grad_out * self._act[1](self._cache["z"], self._cache["y"])
        k, s, p = self.kernel_size, self.stride, self._pad_amount()
        x_shape: Tuple[int, int, int, int] = self._cache["x_shape"]  # type: ignore[assignment]
        cols3: np.ndarray = self._cache["cols3"]  # type: ignore[assignment]
        n, oh, ow, c = grad_out.shape
        g = grad_out.reshape(n * oh * ow, c)
        grad_w = np.einsum("pkc,pc->kc", cols3, g, optimize=True)
        self.grads["W"] = grad_w.reshape(self.params["W"].shape)
        if self.use_bias:
            self.grads["b"] = g.sum(axis=0)
        w = self.params["W"].reshape(k * k, c)
        grad_cols3 = np.einsum("pc,kc->pkc", g, w, optimize=True)
        grad_cols = grad_cols3.reshape(n * oh * ow, k * k * c)
        return col2im(grad_cols, x_shape, k, k, s, p)

# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

class _Pool2D(Layer):
    """Shared plumbing for max/avg pooling (non-overlapping windows)."""

    def __init__(self, pool_size: int = 2, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.pool_size = int(pool_size)
        self.trainable = False
        self._cache: Dict[str, object] = {}

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        h, w, c = input_shape
        return (h // self.pool_size, w // self.pool_size, c)

    def _window(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        n, h, w, c = x.shape
        p = self.pool_size
        oh, ow = h // p, w // p
        x = x[:, : oh * p, : ow * p, :]
        windows = x.reshape(n, oh, p, ow, p, c)
        return windows, (oh, ow)


class MaxPool2D(_Pool2D):
    """Non-overlapping max pooling."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        windows, (oh, ow) = self._window(x)
        out = windows.max(axis=(2, 4))
        # Cache the argmax mask for backward: broadcast compare.
        mask = windows == out[:, :, None, :, None, :]
        # Break ties so gradient is routed to exactly one element per window.
        flat = mask.reshape(*mask.shape[:2], self.pool_size, mask.shape[3], self.pool_size, mask.shape[5])
        self._cache.update(mask=mask, x_shape=x.shape, out_hw=(oh, ow))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask: np.ndarray = self._cache["mask"]  # type: ignore[assignment]
        x_shape: Tuple[int, int, int, int] = self._cache["x_shape"]  # type: ignore[assignment]
        n, h, w, c = x_shape
        p = self.pool_size
        oh, ow = self._cache["out_hw"]  # type: ignore[misc]
        # Normalize mask so ties split the gradient (keeps it an exact adjoint).
        counts = mask.sum(axis=(2, 4), keepdims=True)
        g = (mask / counts) * grad_out[:, :, None, :, None, :]
        grad_in = np.zeros(x_shape, dtype=grad_out.dtype)
        grad_in[:, : oh * p, : ow * p, :] = g.reshape(n, oh * p, ow * p, c)
        return grad_in


class AvgPool2D(_Pool2D):
    """Non-overlapping average pooling."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        windows, (oh, ow) = self._window(x)
        self._cache.update(x_shape=x.shape, out_hw=(oh, ow))
        return windows.mean(axis=(2, 4))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape: Tuple[int, int, int, int] = self._cache["x_shape"]  # type: ignore[assignment]
        n, h, w, c = x_shape
        p = self.pool_size
        oh, ow = self._cache["out_hw"]  # type: ignore[misc]
        g = np.repeat(np.repeat(grad_out, p, axis=1), p, axis=2) / (p * p)
        grad_in = np.zeros(x_shape, dtype=grad_out.dtype)
        grad_in[:, : oh * p, : ow * p, :] = g
        return grad_in


class GlobalAvgPool2D(Layer):
    """Average over the spatial dimensions, producing a flat feature vector."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.trainable = False
        self._in_shape: Optional[Tuple[int, ...]] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (input_shape[-1],)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._in_shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._in_shape is not None
        n, h, w, c = self._in_shape
        g = grad_out[:, None, None, :] / (h * w)
        return np.broadcast_to(g, self._in_shape).copy()


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

class BatchNorm(Layer):
    """Batch normalization over the last axis (channels or features).

    Maintains running mean/variance for inference.  The running statistics
    are stored in ``params`` with ``trainable`` markers so optimizers skip
    them, and so quantization / fusion passes in :mod:`repro.exchange` can
    fold them into preceding convolutions.
    """

    NON_TRAINABLE = ("running_mean", "running_var")

    def __init__(self, momentum: float = 0.9, eps: float = 1e-5, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self._cache: Dict[str, np.ndarray] = {}

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        c = int(input_shape[-1])
        self.params["gamma"] = init.ones((c,))
        self.params["beta"] = init.zeros((c,))
        self.params["running_mean"] = init.zeros((c,))
        self.params["running_var"] = init.ones((c,))
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.params["running_mean"] *= m
            self.params["running_mean"] += (1 - m) * mean
            self.params["running_var"] *= m
            self.params["running_var"] += (1 - m) * var
        else:
            mean = self.params["running_mean"]
            var = self.params["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache.update(x_hat=x_hat, inv_std=inv_std)
        return self.params["gamma"] * x_hat + self.params["beta"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat = self._cache["x_hat"]
        inv_std = self._cache["inv_std"]
        axes = tuple(range(grad_out.ndim - 1))
        m = float(np.prod([grad_out.shape[a] for a in axes]))
        self.grads["gamma"] = (grad_out * x_hat).sum(axis=axes)
        self.grads["beta"] = grad_out.sum(axis=axes)
        # Zero grads for running stats so optimizers can iterate params uniformly.
        self.grads["running_mean"] = np.zeros_like(self.params["running_mean"])
        self.grads["running_var"] = np.zeros_like(self.params["running_var"])
        gamma = self.params["gamma"]
        dxhat = grad_out * gamma
        grad_in = (
            dxhat - dxhat.mean(axis=axes) - x_hat * (dxhat * x_hat).mean(axis=axes)
        ) * inv_std
        return grad_in
