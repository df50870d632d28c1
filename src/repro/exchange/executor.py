"""Reference executor for the graph IR.

The executor evaluates a :class:`~repro.exchange.graph.GraphIR` on NumPy
inputs.  It is used (a) as the on-device inference engine inside the
portable-module runtime, (b) to verify that compiler passes preserve model
semantics, and (c) to execute quantized graphs, applying fake-quantization
to weights and activations according to per-node ``bits`` annotations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn import activations as A
from repro.nn.layers import col2im, im2col

from .graph import GraphIR, GraphNode

__all__ = ["GraphExecutor", "execute_graph", "quantize_node_params"]


def _fake_quantize(x: np.ndarray, bits: int, symmetric: bool = True) -> np.ndarray:
    """Quantize-dequantize a tensor to the given bit width (per-tensor).

    The symmetric scheme clamps the scale to the smallest normal float so
    subnormal inputs cannot underflow it to zero (which would turn
    ``x / scale`` into inf/NaN).  The asymmetric scheme uses an *integer*
    zero-point over a range nudged to include 0.0 — the standard affine
    quantizer contract: real zero is always exactly representable, and
    constant tensors survive the round trip.
    """
    if bits >= 32:
        return x
    if bits <= 0:
        raise ValueError("bits must be positive")
    x = np.asarray(x)
    if x.size == 0:
        return np.asarray(x, dtype=np.float64)
    tiny = np.finfo(np.float64).tiny
    if symmetric:
        qmax = 2 ** (bits - 1) - 1 if bits > 1 else 1
        max_abs = float(np.max(np.abs(x)))
        scale = max(max_abs / qmax, tiny) if max_abs > 0 else 1.0
        q = np.clip(np.round(x / scale), -qmax - (0 if bits == 1 else 1), qmax)
        return q * scale
    qmax = 2**bits - 1
    lo = min(float(x.min()), 0.0)
    hi = max(float(x.max()), 0.0)
    if hi > lo:
        scale = max((hi - lo) / qmax, tiny)
        zero = float(np.round(np.clip(-lo / scale, 0.0, qmax)))
    else:
        scale, zero = 1.0, 0.0
    q = np.clip(np.round(x / scale + zero), 0.0, qmax)
    return (q - zero) * scale


def quantize_node_params(node: GraphNode, apply_quantization: bool = True) -> Dict[str, np.ndarray]:
    """Fake-quantize a node's weights according to its ``bits`` annotations.

    Shared by the reference :class:`GraphExecutor` (which caches the result
    per node) and the compiled engine in :mod:`repro.exchange.compiled`
    (which folds it once at compile time), so both executors are guaranteed
    to run bit-identical weights.
    """
    bits = int(node.attrs.get("bits", 32))
    if not apply_quantization or bits >= 32 or not node.params:
        return node.params
    scheme = str(node.attrs.get("quant_scheme", "symmetric"))
    per_channel = bool(node.attrs.get("per_channel", False))
    quantized: Dict[str, np.ndarray] = {}
    for key, value in node.params.items():
        if key == "W" and per_channel and value.ndim >= 2:
            # Quantize each output channel (last axis) independently.
            flat = value.reshape(-1, value.shape[-1])
            out = np.empty_like(flat)
            for c in range(flat.shape[1]):
                out[:, c] = _fake_quantize(flat[:, c], bits, scheme == "symmetric")
            quantized[key] = out.reshape(value.shape)
        elif key in ("W",):
            quantized[key] = _fake_quantize(value, bits, scheme == "symmetric")
        else:
            quantized[key] = value  # biases / BN stats stay high precision
    return quantized


class GraphExecutor:
    """Evaluates a GraphIR on batched NumPy inputs.

    Parameters
    ----------
    graph:
        The IR to execute.
    apply_quantization:
        When True, per-node ``bits`` attributes < 32 trigger fake quantization
        of the node's weights (once, cached) and of its output activations —
        modelling integer edge inference without an integer kernel library.
    """

    def __init__(self, graph: GraphIR, apply_quantization: bool = True) -> None:
        self.graph = graph
        self.apply_quantization = apply_quantization
        self._quantized_params: Dict[str, Dict[str, np.ndarray]] = {}

    # -- weights ----------------------------------------------------------
    def _node_params(self, node: GraphNode) -> Dict[str, np.ndarray]:
        bits = int(node.attrs.get("bits", 32))
        if not self.apply_quantization or bits >= 32:
            return node.params
        cached = self._quantized_params.get(node.name)
        if cached is not None:
            return cached
        quantized = quantize_node_params(node, apply_quantization=True)
        self._quantized_params[node.name] = quantized
        return quantized

    def invalidate_cache(self) -> None:
        """Drop cached quantized weights (call after editing node params)."""
        self._quantized_params.clear()

    # -- execution ----------------------------------------------------------
    def run(self, x: np.ndarray, collect_activations: bool = False) -> np.ndarray | Tuple[np.ndarray, List[np.ndarray]]:
        """Run the graph on a batch; optionally return every intermediate."""
        out = np.asarray(x, dtype=np.float64)
        activations: List[np.ndarray] = []
        for node in self.graph.nodes:
            out = self._run_node(node, out)
            if self.apply_quantization:
                act_bits = int(node.attrs.get("activation_bits", 32))
                if act_bits < 32:
                    out = _fake_quantize(out, act_bits)
            if collect_activations:
                activations.append(out)
        if collect_activations:
            return out, activations
        return out

    __call__ = run

    # -- per-op kernels ----------------------------------------------------
    def _run_node(self, node: GraphNode, x: np.ndarray) -> np.ndarray:
        op = node.op_type
        params = self._node_params(node)
        attrs = node.attrs
        if op == "input":
            return x
        if op == "dense":
            z = x @ params["W"]
            if attrs.get("use_bias", True) and "b" in params:
                z = z + params["b"]
            return z
        if op == "conv2d":
            return self._conv2d(x, params, attrs)
        if op == "depthwise_conv2d":
            return self._depthwise(x, params, attrs)
        if op == "batchnorm":
            eps = float(attrs.get("eps", 1e-5))
            mean = params["running_mean"]
            var = params["running_var"]
            inv_std = 1.0 / np.sqrt(var + eps)
            return params["gamma"] * (x - mean) * inv_std + params["beta"]
        if op in ("relu", "relu6", "leaky_relu", "sigmoid", "tanh", "hard_sigmoid", "linear"):
            return A.get_activation(op)[0](x)
        if op == "softmax":
            return A.softmax(x, axis=-1)
        if op == "dropout":
            return x  # inference: identity
        if op == "maxpool2d":
            return self._pool(x, int(attrs.get("pool_size", 2)), "max")
        if op == "avgpool2d":
            return self._pool(x, int(attrs.get("pool_size", 2)), "avg")
        if op == "global_avgpool2d":
            return x.mean(axis=(1, 2))
        if op == "flatten":
            return x.reshape(x.shape[0], -1)
        if op == "quantize":
            return _fake_quantize(x, int(attrs.get("bits", 8)))
        if op == "dequantize":
            return x
        if op == "normalize":
            mean = np.asarray(attrs.get("mean", 0.0))
            std = np.asarray(attrs.get("std", 1.0))
            return (x - mean) / std
        if op == "threshold":
            return (x >= float(attrs.get("value", 0.5))).astype(np.float64)
        if op == "argmax":
            return x.argmax(axis=-1, keepdims=True).astype(np.float64)
        if op == "add":
            return x + np.asarray(attrs.get("constant", 0.0))
        if op == "mul":
            return x * np.asarray(attrs.get("constant", 1.0))
        if op == "reshape":
            return x.reshape((x.shape[0],) + tuple(int(v) for v in attrs["shape"]))
        raise NotImplementedError(f"executor has no kernel for op {op!r}")

    @staticmethod
    def _conv2d(x: np.ndarray, params: Dict[str, np.ndarray], attrs: Dict) -> np.ndarray:
        k = int(attrs.get("kernel_size", 3))
        stride = int(attrs.get("stride", 1))
        pad = (k - 1) // 2 if attrs.get("padding", "same") == "same" else 0
        w = params["W"]
        filters = w.shape[-1]
        n = x.shape[0]
        cols, out_h, out_w = im2col(x, k, k, stride, pad)
        z = cols @ w.reshape(-1, filters)
        if attrs.get("use_bias", True) and "b" in params:
            z = z + params["b"]
        return z.reshape(n, out_h, out_w, filters)

    @staticmethod
    def _depthwise(x: np.ndarray, params: Dict[str, np.ndarray], attrs: Dict) -> np.ndarray:
        k = int(attrs.get("kernel_size", 3))
        stride = int(attrs.get("stride", 1))
        pad = (k - 1) // 2 if attrs.get("padding", "same") == "same" else 0
        w = params["W"]
        n, _, _, c = x.shape
        cols, out_h, out_w = im2col(x, k, k, stride, pad)
        cols3 = cols.reshape(-1, k * k, c)
        z = np.einsum("pkc,kc->pc", cols3, w.reshape(k * k, c), optimize=True)
        if attrs.get("use_bias", True) and "b" in params:
            z = z + params["b"]
        return z.reshape(n, out_h, out_w, c)

    @staticmethod
    def _pool(x: np.ndarray, p: int, kind: str) -> np.ndarray:
        n, h, w, c = x.shape
        oh, ow = h // p, w // p
        x = x[:, : oh * p, : ow * p, :]
        windows = x.reshape(n, oh, p, ow, p, c)
        if kind == "max":
            return windows.max(axis=(2, 4))
        return windows.mean(axis=(2, 4))


def execute_graph(
    graph: GraphIR,
    x: np.ndarray,
    apply_quantization: bool = True,
    engine: Optional[str] = None,
) -> np.ndarray:
    """One-shot convenience wrapper around the graph executors.

    ``engine`` follows the :mod:`repro.dispatch` convention:
    ``"oracle"`` (the default here — a one-shot call has no plan to amortize)
    runs the reference :class:`GraphExecutor` interpreter;
    ``"batched"`` compiles the graph into a
    :class:`~repro.exchange.compiled.CompiledExecutor` plan first.
    """
    from repro.dispatch import ENGINE_BATCHED, ENGINE_ORACLE, resolve_engine

    if resolve_engine(engine, default=ENGINE_ORACLE, owner="execute_graph") == ENGINE_BATCHED:
        from .compiled import CompiledExecutor

        return CompiledExecutor(graph, apply_quantization=apply_quantization).run(x)
    return GraphExecutor(graph, apply_quantization=apply_quantization).run(x)
