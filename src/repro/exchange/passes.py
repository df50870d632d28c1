"""Compiler passes over the graph IR.

The passes mirror what TVM / TFLite converters do when lowering a trained
model for a specific edge target (paper Section IV):

* :func:`fold_batchnorm` — fold inference-time BatchNorm into the preceding
  conv/dense weights (removes ops unsupported on tiny runtimes).
* :func:`fuse_activations` — mark element-wise activations as fused into the
  preceding compute node (fewer kernel launches / memory round-trips).
* :func:`annotate_quantization` — attach bit-width / scheme attributes that
  the executor and cost model honour.
* :func:`eliminate_dropout` — remove training-only ops.
* :func:`insert_preprocessing` — prepend normalization nodes so the deployed
  artifact is self-contained (paper Section III-A: pipelines include pre/post
  processing).
* :func:`PassPipeline` — compose passes and record what was applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .graph import GraphIR, GraphNode
from .ops import get_op_spec

__all__ = [
    "fold_batchnorm",
    "fuse_activations",
    "annotate_quantization",
    "eliminate_dropout",
    "insert_preprocessing",
    "insert_postprocessing",
    "PassPipeline",
]

GraphPass = Callable[[GraphIR], GraphIR]


def eliminate_dropout(graph: GraphIR) -> GraphIR:
    """Remove dropout nodes (identity at inference time)."""
    nodes = [n.clone() for n in graph.nodes if n.op_type != "dropout"]
    out = GraphIR(nodes, graph.input_shape, name=graph.name, metadata=dict(graph.metadata))
    out.metadata.setdefault("passes", []).append("eliminate_dropout")
    return out


def fold_batchnorm(graph: GraphIR) -> GraphIR:
    """Fold BatchNorm into the immediately preceding conv/dense node.

    For a preceding node computing ``z = x*W + b``, BatchNorm computes
    ``gamma * (z - mu) / sqrt(var + eps) + beta``; folding rescales ``W`` by
    ``gamma / sqrt(var + eps)`` per output channel and adjusts the bias.
    BatchNorm nodes that do not follow a foldable op are kept.
    """
    nodes: List[GraphNode] = []
    for node in graph.nodes:
        if node.op_type == "batchnorm" and nodes and nodes[-1].op_type in ("conv2d", "dense", "depthwise_conv2d"):
            prev = nodes[-1]
            eps = float(node.attrs.get("eps", 1e-5))
            gamma = node.params["gamma"]
            beta = node.params["beta"]
            mean = node.params["running_mean"]
            var = node.params["running_var"]
            scale = gamma / np.sqrt(var + eps)
            w = prev.params["W"]
            # The output-channel axis is the last axis for conv2d/dense and
            # also for depthwise kernels of shape (k, k, c).
            prev.params["W"] = w * scale.reshape((1,) * (w.ndim - 1) + (-1,))
            bias = prev.params.get("b")
            if bias is None:
                bias = np.zeros_like(beta)
                prev.attrs["use_bias"] = True
            prev.params["b"] = (bias - mean) * scale + beta
            prev.attrs["bn_folded"] = True
            continue
        nodes.append(node.clone())
    out = GraphIR(nodes, graph.input_shape, name=graph.name, metadata=dict(graph.metadata))
    out.metadata.setdefault("passes", []).append("fold_batchnorm")
    return out


def fuse_activations(graph: GraphIR) -> GraphIR:
    """Mark element-wise activations as fused into the preceding compute op.

    The activation node is removed and recorded in the compute node's
    ``fused_activation`` attribute.  The executor is unaffected numerically
    because :class:`~repro.exchange.executor.GraphExecutor` is only used on
    graphs where fused activations are re-expanded; for cost purposes fusion
    removes one activation's worth of memory traffic.
    """
    fusible = {"relu", "relu6", "leaky_relu", "sigmoid", "tanh", "hard_sigmoid", "linear"}
    compute_ops = {"conv2d", "dense", "depthwise_conv2d"}
    nodes: List[GraphNode] = []
    for node in graph.nodes:
        if (
            node.op_type in fusible
            and nodes
            and nodes[-1].op_type in compute_ops
            and "fused_activation" not in nodes[-1].attrs
        ):
            nodes[-1].attrs["fused_activation"] = node.op_type
            continue
        nodes.append(node.clone())
    out = GraphIR(nodes, graph.input_shape, name=graph.name, metadata=dict(graph.metadata))
    out.metadata.setdefault("passes", []).append("fuse_activations")
    return out


def expand_fused_activations(graph: GraphIR) -> GraphIR:
    """Inverse of :func:`fuse_activations` (used before reference execution)."""
    nodes: List[GraphNode] = []
    for node in graph.nodes:
        clone = node.clone()
        fused = clone.attrs.pop("fused_activation", None)
        nodes.append(clone)
        if fused:
            nodes.append(GraphNode(f"{clone.name}_fused_act", str(fused)))
    out = GraphIR(nodes, graph.input_shape, name=graph.name, metadata=dict(graph.metadata))
    out.metadata.setdefault("passes", []).append("expand_fused_activations")
    return out


def annotate_quantization(
    graph: GraphIR,
    bits: int = 8,
    scheme: str = "symmetric",
    per_channel: bool = False,
    activation_bits: Optional[int] = None,
    skip_ops: Sequence[str] = ("batchnorm",),
) -> GraphIR:
    """Attach quantization attributes to every parameterized node.

    This is "lowering" in the sense of the paper: the registry stores one
    base model and the optimization pipeline stamps out per-target variants
    with different bit widths (Section III-A).
    """
    if bits not in (1, 2, 4, 8, 16, 32):
        raise ValueError(f"unsupported bit width {bits}")
    out = graph.clone()
    for node in out.nodes:
        if node.op_type in skip_ops:
            continue
        if get_op_spec(node.op_type).has_params:
            node.attrs["bits"] = int(bits)
            node.attrs["quant_scheme"] = scheme
            node.attrs["per_channel"] = bool(per_channel)
            if activation_bits is not None:
                node.attrs["activation_bits"] = int(activation_bits)
    out.metadata.setdefault("passes", []).append(f"annotate_quantization[{bits}b]")
    out.metadata["bits"] = int(bits)
    return out


def insert_preprocessing(graph: GraphIR, mean: float | np.ndarray = 0.0, std: float | np.ndarray = 1.0) -> GraphIR:
    """Prepend a normalization node so deployment artifacts are self-contained."""
    pre = GraphNode("preprocess_normalize", "normalize", {"mean": mean, "std": std})
    out = GraphIR([pre] + [n.clone() for n in graph.nodes], graph.input_shape, name=graph.name, metadata=dict(graph.metadata))
    out.metadata.setdefault("passes", []).append("insert_preprocessing")
    return out


def insert_postprocessing(graph: GraphIR, kind: str = "softmax") -> GraphIR:
    """Append a post-processing node (softmax or argmax)."""
    if kind not in ("softmax", "argmax"):
        raise ValueError("postprocessing kind must be 'softmax' or 'argmax'")
    post = GraphNode(f"postprocess_{kind}", kind)
    out = GraphIR([n.clone() for n in graph.nodes] + [post], graph.input_shape, name=graph.name, metadata=dict(graph.metadata))
    out.metadata.setdefault("passes", []).append("insert_postprocessing")
    return out


@dataclass
class PassPipeline:
    """Ordered list of passes applied to a graph, with a record of changes."""

    passes: List[GraphPass] = field(default_factory=list)
    name: str = "pipeline"

    def add(self, p: GraphPass) -> "PassPipeline":
        """Append a pass; returns self for chaining."""
        self.passes.append(p)
        return self

    def run(self, graph: GraphIR) -> GraphIR:
        """Apply every pass in order."""
        out = graph
        for p in self.passes:
            out = p(out)
        return out

    @classmethod
    def standard_inference(cls) -> "PassPipeline":
        """The default inference-lowering pipeline: drop dropout, fold BN, fuse."""
        return cls([eliminate_dropout, fold_batchnorm, fuse_activations], name="standard_inference")
