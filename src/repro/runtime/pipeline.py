"""Inference pipelines: ordered modules with optional control logic.

Paper Section III-A: "the machine learning pipeline will also require data
preprocessing and postprocessing operations … or even some control logic to
activate a different part of the pipeline depending on the result of a
first model.  The TinyMLOps system should make it easy for users to
configure pipelines like this."

A :class:`Pipeline` is a list of stages.  A stage is either a plain
:class:`~repro.runtime.modules.Module` or a :class:`ConditionalStage` that
routes each sample to one of two sub-pipelines based on a predicate over the
intermediate result — the classic cascade (cheap model first, escalate the
hard samples to a bigger model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .modules import Module, Sandbox

__all__ = ["ConditionalStage", "Pipeline"]


@dataclass
class ConditionalStage:
    """Routes samples to ``if_true`` / ``if_false`` based on ``predicate``.

    ``predicate`` receives the current intermediate array and returns a
    boolean mask over the batch.  Both branches must produce outputs of the
    same trailing shape so the results can be re-assembled.
    """

    name: str
    predicate: Callable[[np.ndarray], np.ndarray]
    if_true: "Pipeline"
    if_false: "Pipeline"

    def run(self, x: np.ndarray, sandbox: Optional[Sandbox] = None) -> np.ndarray:
        """Run each sample through its branch; an empty batch runs
        ``if_false`` on it, so the output still has the branches' shape."""
        mask = np.asarray(self.predicate(x), dtype=bool)
        if mask.shape[0] != x.shape[0]:
            raise ValueError("predicate must return one boolean per sample")
        out_true = self.if_true.run(x[mask], sandbox=sandbox) if mask.any() else None
        out_false = self.if_false.run(x[~mask], sandbox=sandbox) if out_true is None or (~mask).any() else None
        template = out_true if out_true is not None else out_false
        out = np.zeros((x.shape[0],) + template.shape[1:], dtype=template.dtype)
        if out_true is not None:
            out[mask] = out_true
        if out_false is not None:
            out[~mask] = out_false
        return out

    @property
    def size_bytes(self) -> int:
        return self.if_true.size_bytes() + self.if_false.size_bytes() + 256

    @property
    def requires(self) -> frozenset:
        return self.if_true.required_capabilities() | self.if_false.required_capabilities()


Stage = Union[Module, ConditionalStage]


class Pipeline:
    """An ordered sequence of processing stages deployed as one unit."""

    def __init__(self, stages: Sequence[Stage], name: str = "pipeline", version: str = "1.0.0") -> None:
        self.stages: List[Stage] = list(stages)
        self.name = name
        self.version = version

    # -- execution ---------------------------------------------------------
    def run(self, x: np.ndarray, sandbox: Optional[Sandbox] = None) -> np.ndarray:
        """Run every stage in order, honouring the sandbox when provided."""
        out = np.asarray(x)
        for stage in self.stages:
            if isinstance(stage, ConditionalStage):
                out = stage.run(out, sandbox=sandbox)
            elif sandbox is not None:
                out = sandbox.run(stage, out)
            else:
                out = stage(out)
        return out

    __call__ = run

    # -- introspection ----------------------------------------------------
    def size_bytes(self) -> int:
        """Total packaged size of the pipeline (for placement decisions)."""
        return int(sum(s.size_bytes for s in self.stages))

    def required_capabilities(self) -> frozenset:
        """Union of all stages' capability requirements."""
        caps: frozenset = frozenset()
        for stage in self.stages:
            caps = caps | stage.requires
        return caps

    def stage_names(self) -> List[str]:
        """Names of all stages in order."""
        return [s.name for s in self.stages]

    def manifest(self) -> Dict[str, object]:
        """Deployment manifest describing the pipeline."""
        return {
            "name": self.name,
            "version": self.version,
            "stages": self.stage_names(),
            "size_bytes": self.size_bytes(),
            "capabilities": sorted(self.required_capabilities()),
        }
