"""Post-training quantization utilities.

Implements the classic TinyML optimization the paper discusses in
Sections II / III-A: reduced-precision weights (8/4/2/1 bit), symmetric or
affine, per-tensor or per-channel.  Quantization is *simulated* (fake
quantization: quantize then dequantize back to float) because the NumPy
engine has no integer kernels — the accuracy impact is faithful, while the
latency impact is modelled by the device cost model, which only credits a
speed-up when the target natively supports the chosen bit width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "QuantizationConfig",
    "quantize_array",
    "dequantize_array",
    "fake_quantize",
    "static_fake_quantize",
    "quantize_model",
]


@dataclass(frozen=True)
class QuantizationConfig:
    """Configuration of a post-training quantization run.

    Attributes
    ----------
    bits:
        Target weight bit width (1, 2, 4, 8 or 16).
    symmetric:
        Symmetric (zero-point 0) vs affine quantization.
    per_channel:
        Quantize each output channel with its own scale.
    quantize_bias:
        Whether bias vectors are quantized too (normally kept in float).
    activation_bits:
        Optional activation bit width recorded for the executor/cost model.
    """

    bits: int = 8
    symmetric: bool = True
    per_channel: bool = False
    quantize_bias: bool = False
    activation_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bits not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported bit width {self.bits}")


def quantize_array(
    x: np.ndarray, bits: int, symmetric: bool = True
) -> Tuple[np.ndarray, float, float]:
    """Quantize an array; returns ``(q, scale, zero_point)``.

    ``q`` holds integer code values stored in float64 (NumPy has no packed
    sub-byte integers); ``dequantize_array`` restores approximate floats.
    """
    x = np.asarray(x, dtype=np.float64)
    if bits >= 32:
        return x.copy(), 1.0, 0.0
    if symmetric:
        qmax = float(2 ** (bits - 1) - 1) if bits > 1 else 1.0
        qmin = -qmax - (1.0 if bits > 1 else 0.0)
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        # Clamp to the smallest normal float: with subnormal inputs the
        # division can underflow to 0.0, which would turn x / scale into
        # inf/NaN.
        scale = max(max_abs / qmax, np.finfo(np.float64).tiny) if max_abs > 0 else 1.0
        q = np.clip(np.round(x / scale), qmin, qmax)
        return q, scale, 0.0
    lo = float(x.min()) if x.size else 0.0
    hi = float(x.max()) if x.size else 0.0
    qmax = float(2**bits - 1)
    scale = max((hi - lo) / qmax, np.finfo(np.float64).tiny) if hi > lo else 1.0
    zero = -lo / scale
    q = np.clip(np.round(x / scale + zero), 0.0, qmax)
    return q, scale, zero


def dequantize_array(q: np.ndarray, scale: float, zero_point: float = 0.0) -> np.ndarray:
    """Inverse of :func:`quantize_array`."""
    return (np.asarray(q, dtype=np.float64) - zero_point) * scale


def fake_quantize(x: np.ndarray, bits: int, symmetric: bool = True, per_channel: bool = False) -> np.ndarray:
    """Quantize-dequantize an array, optionally per output channel (last axis)."""
    if bits >= 32:
        return np.asarray(x, dtype=np.float64).copy()
    x = np.asarray(x, dtype=np.float64)
    if per_channel and x.ndim >= 2:
        flat = x.reshape(-1, x.shape[-1])
        out = np.empty_like(flat)
        for c in range(flat.shape[1]):
            q, scale, zero = quantize_array(flat[:, c], bits, symmetric)
            out[:, c] = dequantize_array(q, scale, zero)
        return out.reshape(x.shape)
    q, scale, zero = quantize_array(x, bits, symmetric)
    return dequantize_array(q, scale, zero)


def static_fake_quantize(x: np.ndarray, bits: int, max_abs: float) -> np.ndarray:
    """Symmetric fake quantization over a *frozen* (calibrated) range.

    Uses exactly the grid of the dynamic-range activation quantizer
    (:func:`repro.exchange.executor._fake_quantize`, symmetric scheme) but
    with ``max_abs`` recorded on a calibration batch instead of derived from
    the data being quantized.  That makes the op per-sample independent, so
    a compiled plan can stack windows from many devices into one sweep
    (:meth:`repro.exchange.CompiledExecutor.run_many`) without leaking
    quantization statistics across windows.

    Error contract versus the dynamic-range oracle: with ``scale =
    max(max_abs / qmax, tiny)``, values with ``|x| <= max_abs`` round with
    error at most ``scale / 2``; values outside the calibrated range clip to
    ``+-qmax * scale``.  When ``max_abs`` equals the batch's own max the
    result is bit-identical to the dynamic quantizer.
    """
    if bits >= 32:
        return np.asarray(x, dtype=np.float64)
    if bits <= 0:
        raise ValueError("bits must be positive")
    x = np.asarray(x, dtype=np.float64)
    tiny = np.finfo(np.float64).tiny
    qmax = 2 ** (bits - 1) - 1 if bits > 1 else 1
    max_abs = float(max_abs)
    scale = max(max_abs / qmax, tiny) if max_abs > 0 else 1.0
    q = np.clip(np.round(x / scale), -qmax - (0 if bits == 1 else 1), qmax)
    return q * scale


def quantize_model(model, config: QuantizationConfig, name_suffix: Optional[str] = None):
    """Return a copy of a :class:`repro.nn.Sequential` with quantized weights.

    Only weight matrices/kernels (parameter key ``"W"``) are quantized;
    biases and BatchNorm statistics stay in float unless
    ``config.quantize_bias`` is set.
    """
    suffix = name_suffix if name_suffix is not None else f"-int{config.bits}"
    clone = model.clone(copy_weights=True, name=f"{model.name}{suffix}")
    for layer in clone.layers:
        for key, value in layer.params.items():
            if key == "W" or (config.quantize_bias and key == "b"):
                layer.params[key] = fake_quantize(
                    value, config.bits, symmetric=config.symmetric, per_channel=config.per_channel
                )
    return clone
