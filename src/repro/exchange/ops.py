"""Operator registry for the exchange graph IR.

The paper (Section IV) points to ONNX / NNEF / TVM as attempts at a common
interchange layer between training frameworks and fragmented edge runtimes.
This module defines the operator vocabulary of our IR together with
per-operator metadata used by the compiler:

* shape inference,
* FLOP and byte-movement estimates,
* whether the op carries parameters,
* whether it is fusible into a preceding compute op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["OpSpec", "OP_REGISTRY", "get_op_spec", "infer_shape", "op_flops"]

Shape = Tuple[int, ...]


@dataclass(frozen=True)
class OpSpec:
    """Metadata for one operator type.

    Attributes
    ----------
    name:
        Canonical operator name (lowercase).
    has_params:
        Whether nodes of this type carry weight tensors.
    elementwise:
        True for ops that preserve shape and operate element-wise; such ops
        are candidates for fusion into the preceding compute op.
    infer_shape:
        Function ``(input_shape, attrs) -> output_shape`` on per-example shapes.
    flops:
        Function ``(input_shape, output_shape, attrs, param_count) -> flops``.
    """

    name: str
    has_params: bool = False
    elementwise: bool = False
    infer_shape: Callable[[Shape, Dict], Shape] = lambda s, a: s
    flops: Callable[[Shape, Shape, Dict, int], float] = lambda i, o, a, p: float(np.prod(o))


def _dense_shape(s: Shape, attrs: Dict) -> Shape:
    return (int(attrs["units"]),)


def _dense_flops(i: Shape, o: Shape, attrs: Dict, params: int) -> float:
    return 2.0 * float(i[0]) * float(o[0])


def _conv_out_hw(s: Shape, attrs: Dict) -> Tuple[int, int]:
    h, w = s[0], s[1]
    k = int(attrs.get("kernel_size", 3))
    stride = int(attrs.get("stride", 1))
    pad = (k - 1) // 2 if attrs.get("padding", "same") == "same" else 0
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    return out_h, out_w


def _conv2d_shape(s: Shape, attrs: Dict) -> Shape:
    out_h, out_w = _conv_out_hw(s, attrs)
    return (out_h, out_w, int(attrs["filters"]))


def _conv2d_flops(i: Shape, o: Shape, attrs: Dict, params: int) -> float:
    k = int(attrs.get("kernel_size", 3))
    return 2.0 * float(np.prod(o)) * k * k * float(i[-1])


def _depthwise_shape(s: Shape, attrs: Dict) -> Shape:
    out_h, out_w = _conv_out_hw(s, attrs)
    return (out_h, out_w, int(s[-1]))


def _depthwise_flops(i: Shape, o: Shape, attrs: Dict, params: int) -> float:
    k = int(attrs.get("kernel_size", 3))
    return 2.0 * float(np.prod(o)) * k * k


def _pool_shape(s: Shape, attrs: Dict) -> Shape:
    p = int(attrs.get("pool_size", 2))
    return (s[0] // p, s[1] // p, s[2])


def _gap_shape(s: Shape, attrs: Dict) -> Shape:
    return (s[-1],)


def _flatten_shape(s: Shape, attrs: Dict) -> Shape:
    return (int(np.prod(s)),)


OP_REGISTRY: Dict[str, OpSpec] = {
    "input": OpSpec("input", infer_shape=lambda s, a: s, flops=lambda i, o, a, p: 0.0),
    "dense": OpSpec("dense", has_params=True, infer_shape=_dense_shape, flops=_dense_flops),
    "conv2d": OpSpec("conv2d", has_params=True, infer_shape=_conv2d_shape, flops=_conv2d_flops),
    "depthwise_conv2d": OpSpec(
        "depthwise_conv2d", has_params=True, infer_shape=_depthwise_shape, flops=_depthwise_flops
    ),
    "batchnorm": OpSpec("batchnorm", has_params=True, elementwise=True, flops=lambda i, o, a, p: 2.0 * float(np.prod(o))),
    "relu": OpSpec("relu", elementwise=True),
    "relu6": OpSpec("relu6", elementwise=True),
    "leaky_relu": OpSpec("leaky_relu", elementwise=True),
    "sigmoid": OpSpec("sigmoid", elementwise=True),
    "tanh": OpSpec("tanh", elementwise=True),
    "hard_sigmoid": OpSpec("hard_sigmoid", elementwise=True),
    "softmax": OpSpec("softmax", elementwise=True),
    "linear": OpSpec("linear", elementwise=True),
    "dropout": OpSpec("dropout", elementwise=True, flops=lambda i, o, a, p: 0.0),
    "maxpool2d": OpSpec("maxpool2d", infer_shape=_pool_shape),
    "avgpool2d": OpSpec("avgpool2d", infer_shape=_pool_shape),
    "global_avgpool2d": OpSpec("global_avgpool2d", infer_shape=_gap_shape),
    "flatten": OpSpec("flatten", infer_shape=_flatten_shape, flops=lambda i, o, a, p: 0.0),
    "quantize": OpSpec("quantize", elementwise=True),
    "dequantize": OpSpec("dequantize", elementwise=True),
    "normalize": OpSpec("normalize", elementwise=True),
    "threshold": OpSpec("threshold", elementwise=True),
    "argmax": OpSpec("argmax", infer_shape=lambda s, a: (1,), flops=lambda i, o, a, p: float(np.prod(i))),
    "add": OpSpec("add", elementwise=True),
    "mul": OpSpec("mul", elementwise=True),
    "reshape": OpSpec(
        "reshape",
        infer_shape=lambda s, a: tuple(int(v) for v in a["shape"]),
        flops=lambda i, o, a, p: 0.0,
    ),
}


def get_op_spec(op_type: str) -> OpSpec:
    """Spec for an operator type, raising ``KeyError`` when unknown."""
    key = str(op_type).lower()
    if key not in OP_REGISTRY:
        raise KeyError(f"unknown op type {op_type!r}; known: {sorted(OP_REGISTRY)}")
    return OP_REGISTRY[key]


def infer_shape(op_type: str, input_shape: Shape, attrs: Optional[Dict] = None) -> Shape:
    """Per-example output shape of ``op_type`` applied to ``input_shape``."""
    return tuple(get_op_spec(op_type).infer_shape(tuple(input_shape), attrs or {}))


def op_flops(op_type: str, input_shape: Shape, output_shape: Shape, attrs: Optional[Dict] = None, params: int = 0) -> float:
    """FLOP estimate for one application of the operator."""
    return float(get_op_spec(op_type).flops(tuple(input_shape), tuple(output_shape), attrs or {}, params))
