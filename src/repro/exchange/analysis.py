"""Static analysis of graph IR artifacts: FLOPs, bytes, memory plan.

These estimates feed the device cost model (latency/energy prediction), the
compatibility checker (flash/RAM limits) and the edge-cloud split-point
search (cumulative cost per prefix of the graph).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .graph import GraphIR
from .ops import infer_shape, op_flops

__all__ = ["graph_cost", "per_node_cost", "memory_plan", "split_point_costs"]


def per_node_cost(graph: GraphIR, default_bits: int = 32) -> List[Dict[str, float]]:
    """Per-node FLOPs, parameter bytes and activation sizes (per example)."""
    rows: List[Dict[str, float]] = []
    shape = graph.input_shape
    for node in graph.nodes:
        out_shape = infer_shape(node.op_type, shape, node.attrs)
        bits = int(node.attrs.get("bits", default_bits))
        act_bytes_per_el = max(int(node.attrs.get("activation_bits", 32)), 8) / 8.0
        flops = op_flops(node.op_type, shape, out_shape, node.attrs, node.param_count())
        if "fused_activation" in node.attrs:
            flops += float(np.prod(out_shape))
        rows.append(
            {
                "name": node.name,
                "op_type": node.op_type,
                "flops": flops,
                "param_bytes": float(node.param_bytes(bits)),
                "input_bytes": float(np.prod(shape)) * act_bytes_per_el,
                "output_bytes": float(np.prod(out_shape)) * act_bytes_per_el,
            }
        )
        shape = out_shape
    return rows


def graph_cost(graph: GraphIR, default_bits: int = 32) -> Dict[str, float]:
    """Aggregate cost of the whole graph (per example).

    Returns flops, bytes_moved (activations in/out plus weights read),
    size_bytes (weights at their annotated precision) and the peak
    activation working set.
    """
    rows = per_node_cost(graph, default_bits=default_bits)
    flops = sum(r["flops"] for r in rows)
    bytes_moved = sum(r["input_bytes"] + r["output_bytes"] + r["param_bytes"] for r in rows)
    peak_act = max((r["input_bytes"] + r["output_bytes"] for r in rows), default=0.0)
    return {
        "flops": float(flops),
        "bytes_moved": float(bytes_moved),
        "size_bytes": float(graph.size_bytes(default_bits)),
        "peak_activation_bytes": float(peak_act),
        "n_nodes": float(len(graph)),
        "params": float(graph.param_count()),
    }


def memory_plan(graph: GraphIR, default_bits: int = 32) -> Dict[str, object]:
    """A simple two-buffer ping-pong activation memory plan.

    Chain graphs only ever need the current input and output activation
    alive simultaneously, so the planner reports the two largest adjacent
    activation sizes and the resulting arena size — the number a TFLite-Micro
    style interpreter would allocate statically.
    """
    rows = per_node_cost(graph, default_bits=default_bits)
    arena = 0.0
    schedule = []
    for r in rows:
        need = r["input_bytes"] + r["output_bytes"]
        arena = max(arena, need)
        schedule.append({"node": r["name"], "working_set_bytes": need})
    return {
        "arena_bytes": float(arena),
        "weight_bytes": float(graph.size_bytes(default_bits)),
        "total_static_bytes": float(arena + graph.size_bytes(default_bits)),
        "schedule": schedule,
    }


def split_point_costs(graph: GraphIR, default_bits: int = 32) -> List[Dict[str, float]]:
    """Costs of splitting execution after each node (edge-cloud splitting).

    For every possible split index ``i`` (execute nodes ``[0, i]`` on the
    edge, the rest in the cloud), report the edge FLOPs, cloud FLOPs and the
    number of bytes that must cross the network (the activation produced at
    the split).  Used by :func:`repro.runtime.offload.find_best_split`.
    """
    rows = per_node_cost(graph, default_bits=default_bits)
    total_flops = sum(r["flops"] for r in rows)
    out: List[Dict[str, float]] = []
    cumulative = 0.0
    # Split index -1 = run everything in the cloud (transfer the raw input).
    input_bytes = rows[0]["input_bytes"] if rows else 0.0
    out.append(
        {
            "split_after": -1.0,
            "edge_flops": 0.0,
            "cloud_flops": total_flops,
            "transfer_bytes": input_bytes,
        }
    )
    for i, r in enumerate(rows):
        cumulative += r["flops"]
        out.append(
            {
                "split_after": float(i),
                "edge_flops": cumulative,
                "cloud_flops": total_flops - cumulative,
                "transfer_bytes": r["output_bytes"],
            }
        )
    return out
