"""Portable module runtime and the sharded multi-process fleet backend.

* :mod:`~repro.runtime.modules` and :mod:`~repro.runtime.pipeline` — the
  pipeline a deploy installs (paper Section III-A), run under the capability
  sandbox (Section IV);
* :mod:`~repro.runtime.orchestrator` — placement of a pipeline on fleet
  devices, under storage and capability constraints;
* :mod:`~repro.runtime.offload` — the offloading marketplace and the
  edge/cloud split search (Section IV);
* :mod:`~repro.runtime.sharded` — the sharded multi-process fleet backend.

Roll-outs go through :class:`~repro.lifecycle.LifecyclePipeline`, and
batched inference through :class:`~repro.exchange.CompiledExecutor`.
"""

from .modules import (
    Capability,
    Module,
    Sandbox,
    SandboxViolation,
    argmax_module,
    model_module,
    softmax_module,
)
from .offload import OffloadBid, OffloadMarketplace, SplitDecision, find_best_split
from .orchestrator import Orchestrator, PlacementDecision
from .pipeline import ConditionalStage, Pipeline
from .sharded import ShardedFleetRunner, shard_row_groups

__all__ = [
    "Capability",
    "Module",
    "Sandbox",
    "SandboxViolation",
    "argmax_module",
    "softmax_module",
    "model_module",
    "Pipeline",
    "ConditionalStage",
    "Orchestrator",
    "PlacementDecision",
    "OffloadMarketplace",
    "OffloadBid",
    "SplitDecision",
    "find_best_split",
    "ShardedFleetRunner",
    "shard_row_groups",
]
