"""Graph IR: the ONNX-like interchange representation used by the platform.

A :class:`GraphIR` is a linear chain (single-input, single-output DAG) of
:class:`GraphNode` objects.  Models built with :mod:`repro.nn` are exported
to the IR, transformed by compiler passes (:mod:`repro.exchange.passes`),
checked against device capabilities (:mod:`repro.exchange.compat`) and
finally packaged for deployment (:mod:`repro.exchange.compiler`).

The IR is deliberately simple — a chain with per-node attribute dicts and
parameter tensors — but it is sufficient to express every architecture the
NN engine can build, and it keeps pass implementations easy to verify
(property tests check that passes preserve the graph's numeric semantics).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .ops import get_op_spec, infer_shape

__all__ = ["GraphNode", "GraphIR", "from_sequential"]


@dataclass
class GraphNode:
    """One operator instance in the IR.

    Attributes
    ----------
    name:
        Unique node name within the graph.
    op_type:
        Operator type; must exist in :data:`repro.exchange.ops.OP_REGISTRY`.
    attrs:
        Static attributes (kernel size, units, activation, bits, ...).
    params:
        Named weight tensors (e.g. ``{"W": ..., "b": ...}``).
    """

    name: str
    op_type: str
    attrs: Dict[str, object] = field(default_factory=dict)
    params: Dict[str, np.ndarray] = field(default_factory=dict)

    def param_count(self) -> int:
        """Number of scalar parameters stored on this node."""
        return int(sum(p.size for p in self.params.values()))

    def param_bytes(self, bits: Optional[int] = None) -> int:
        """Size of this node's parameters at the given bit width."""
        if bits is None:
            bits = int(self.attrs.get("bits", 32))
        return int(np.ceil(self.param_count() * bits / 8))

    def clone(self) -> "GraphNode":
        """Deep copy of the node."""
        return GraphNode(
            name=self.name,
            op_type=self.op_type,
            attrs=dict(self.attrs),
            params={k: v.copy() for k, v in self.params.items()},
        )


class GraphIR:
    """A single-chain computation graph with metadata."""

    def __init__(
        self,
        nodes: Sequence[GraphNode],
        input_shape: Tuple[int, ...],
        name: str = "graph",
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.nodes: List[GraphNode] = list(nodes)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.name = name
        self.metadata: Dict[str, object] = dict(metadata or {})
        self.validate()

    # -- structural helpers ------------------------------------------------
    def validate(self) -> None:
        """Check node-name uniqueness, known ops and shape consistency."""
        seen = set()
        for node in self.nodes:
            if node.name in seen:
                raise ValueError(f"duplicate node name {node.name!r}")
            seen.add(node.name)
            get_op_spec(node.op_type)  # raises on unknown op
        # Shape inference doubles as a consistency check.
        self.output_shape()

    def output_shape(self) -> Tuple[int, ...]:
        """Per-example output shape after the final node."""
        shape = self.input_shape
        for node in self.nodes:
            shape = infer_shape(node.op_type, shape, node.attrs)
        return shape

    def shapes(self) -> List[Tuple[int, ...]]:
        """Per-example output shape after every node (same order as nodes)."""
        out = []
        shape = self.input_shape
        for node in self.nodes:
            shape = infer_shape(node.op_type, shape, node.attrs)
            out.append(shape)
        return out

    def op_types(self) -> List[str]:
        """Operator types in execution order."""
        return [n.op_type for n in self.nodes]

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- size / identity -----------------------------------------------------
    def param_count(self) -> int:
        """Total parameter count over all nodes."""
        return int(sum(n.param_count() for n in self.nodes))

    def size_bytes(self, default_bits: int = 32) -> int:
        """Serialized weight size honouring per-node ``bits`` annotations."""
        total = 0
        for node in self.nodes:
            bits = int(node.attrs.get("bits", default_bits))
            total += node.param_bytes(bits)
        return total

    def fingerprint(self) -> str:
        """Content hash over structure and weights (used by the registry)."""
        h = hashlib.sha256()
        h.update(json.dumps(
            {
                "name": self.name,
                "input_shape": self.input_shape,
                "nodes": [
                    {"name": n.name, "op": n.op_type, "attrs": {k: repr(v) for k, v in sorted(n.attrs.items())}}
                    for n in self.nodes
                ],
            },
            sort_keys=True,
        ).encode())
        for node in self.nodes:
            for key in sorted(node.params):
                h.update(key.encode())
                h.update(np.ascontiguousarray(node.params[key]).tobytes())
        return h.hexdigest()

    # -- copies / serialization ------------------------------------------------
    def clone(self, name: Optional[str] = None) -> "GraphIR":
        """Deep copy of the whole graph."""
        return GraphIR(
            [n.clone() for n in self.nodes],
            self.input_shape,
            name=name or self.name,
            metadata=dict(self.metadata),
        )

    def to_bytes(self) -> bytes:
        """Serialize the graph (pickle of plain dicts and arrays)."""
        payload = {
            "name": self.name,
            "input_shape": self.input_shape,
            "metadata": self.metadata,
            "nodes": [
                {"name": n.name, "op_type": n.op_type, "attrs": n.attrs, "params": n.params}
                for n in self.nodes
            ],
        }
        return pickle.dumps(payload)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "GraphIR":
        """Inverse of :meth:`to_bytes`."""
        payload = pickle.loads(blob)
        nodes = [
            GraphNode(d["name"], d["op_type"], dict(d["attrs"]), dict(d["params"]))
            for d in payload["nodes"]
        ]
        return cls(nodes, payload["input_shape"], name=payload["name"], metadata=payload.get("metadata", {}))

    def summary(self) -> str:
        """Readable per-node summary."""
        lines = [f"GraphIR {self.name!r} input={self.input_shape}"]
        shape = self.input_shape
        for node in self.nodes:
            shape = infer_shape(node.op_type, shape, node.attrs)
            bits = node.attrs.get("bits", 32)
            lines.append(f"  {node.name:<24} {node.op_type:<18} out={shape!s:<16} params={node.param_count():<8} bits={bits}")
        lines.append(f"  total params: {self.param_count()}  size: {self.size_bytes()} B")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Export from the NN engine
# ---------------------------------------------------------------------------

def from_sequential(model, name: Optional[str] = None) -> GraphIR:
    """Export a :class:`repro.nn.Sequential` model to the graph IR.

    Layers with fused activations are split into a compute node followed by
    an activation node so that device compatibility can be evaluated per
    primitive operator (mirroring how ONNX represents such models).
    """
    from repro.nn.layers import (
        Activation,
        AvgPool2D,
        BatchNorm,
        Conv2D,
        Dense,
        DepthwiseConv2D,
        Dropout,
        Flatten,
        GlobalAvgPool2D,
        MaxPool2D,
    )

    nodes: List[GraphNode] = []

    def add(name_: str, op: str, attrs: Dict[str, object] | None = None, params: Dict[str, np.ndarray] | None = None) -> None:
        nodes.append(GraphNode(name_, op, dict(attrs or {}), {k: v.copy() for k, v in (params or {}).items()}))

    for i, layer in enumerate(model.layers):
        lname = f"{layer.name}_{i}"
        if isinstance(layer, Dense):
            add(lname, "dense", {"units": layer.units, "use_bias": layer.use_bias}, layer.params)
            if layer.activation_name:
                add(f"{lname}_act", layer.activation_name)
        elif isinstance(layer, Conv2D):
            add(
                lname,
                "conv2d",
                {
                    "filters": layer.filters,
                    "kernel_size": layer.kernel_size,
                    "stride": layer.stride,
                    "padding": layer.padding,
                    "use_bias": layer.use_bias,
                },
                layer.params,
            )
            if layer.activation_name:
                add(f"{lname}_act", layer.activation_name)
        elif isinstance(layer, DepthwiseConv2D):
            add(
                lname,
                "depthwise_conv2d",
                {
                    "kernel_size": layer.kernel_size,
                    "stride": layer.stride,
                    "padding": layer.padding,
                    "use_bias": layer.use_bias,
                },
                layer.params,
            )
            if layer.activation_name:
                add(f"{lname}_act", layer.activation_name)
        elif isinstance(layer, BatchNorm):
            add(lname, "batchnorm", {"eps": layer.eps}, layer.params)
        elif isinstance(layer, Activation):
            add(lname, layer.activation_name)
        elif isinstance(layer, MaxPool2D):
            add(lname, "maxpool2d", {"pool_size": layer.pool_size})
        elif isinstance(layer, AvgPool2D):
            add(lname, "avgpool2d", {"pool_size": layer.pool_size})
        elif isinstance(layer, GlobalAvgPool2D):
            add(lname, "global_avgpool2d")
        elif isinstance(layer, Flatten):
            add(lname, "flatten")
        elif isinstance(layer, Dropout):
            add(lname, "dropout", {"rate": layer.rate})
        else:
            raise TypeError(f"cannot export layer of type {type(layer).__name__}")
    graph = GraphIR(nodes, model.input_shape, name=name or model.name, metadata={"source": "repro.nn", "seed": model.seed})
    return graph
