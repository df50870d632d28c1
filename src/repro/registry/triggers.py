"""Optimization-pipeline triggers: re-derive variants when a base model changes.

Paper Section III-A: "If the base model is updated or retrained, we also
have to automatically trigger the execution of the optimization pipeline
that generates different quantized or pruned versions of the base model."

An :class:`OptimizationPipeline` is a named list of variant recipes
(quantize to N bits, prune to S sparsity, compile for target T).  The
:class:`TriggerManager` subscribes pipelines to model names; calling
:meth:`TriggerManager.on_base_registered` after registering a new base
version re-runs every subscribed pipeline and registers the derived
versions with correct lineage edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .versioning import ModelRegistry, ModelVersion

__all__ = ["VariantRecipe", "OptimizationPipeline", "TriggerManager"]


@dataclass(frozen=True)
class VariantRecipe:
    """One derived-variant recipe.

    ``builder`` receives the deserialized base model and returns
    ``(artifact_bytes, tags)`` for the derived artifact.
    """

    name: str
    kind: str
    builder: Callable[[object], Tuple[bytes, Dict[str, object]]]


@dataclass
class OptimizationPipeline:
    """A named sequence of variant recipes applied to a base model."""

    name: str
    recipes: List[VariantRecipe] = field(default_factory=list)

    def add(self, recipe: VariantRecipe) -> "OptimizationPipeline":
        self.recipes.append(recipe)
        return self

    @classmethod
    def standard(cls, bit_widths: Sequence[int] = (8, 4), sparsities: Sequence[float] = (0.5,)) -> "OptimizationPipeline":
        """The default pipeline: a quantized variant per bit width + pruned variants."""
        from repro.optimize.pruning import magnitude_prune
        from repro.optimize.quantization import QuantizationConfig, quantize_model

        pipeline = cls(name="standard")
        for bits in bit_widths:
            def build_q(model, _bits=bits):
                variant = quantize_model(model, QuantizationConfig(bits=_bits))
                return variant.to_bytes(), {"bits": _bits, "optimization": "quantization"}

            pipeline.add(VariantRecipe(name=f"int{bits}", kind="quantized", builder=build_q))
        for sp in sparsities:
            def build_p(model, _sp=sp):
                variant = magnitude_prune(model, _sp)
                return variant.to_bytes(), {"sparsity": _sp, "optimization": "pruning"}

            pipeline.add(VariantRecipe(name=f"sp{int(sp * 100)}", kind="pruned", builder=build_p))
        return pipeline


class TriggerManager:
    """Connects base-model registrations to optimization pipelines."""

    def __init__(self, registry: ModelRegistry) -> None:
        self.registry = registry
        self._subscriptions: Dict[str, List[OptimizationPipeline]] = {}
        self.trigger_log: List[Dict[str, object]] = []

    def subscribe(self, model_name: str, pipeline: OptimizationPipeline) -> None:
        """Run ``pipeline`` whenever a new base version of ``model_name`` lands."""
        self._subscriptions.setdefault(model_name, []).append(pipeline)

    def on_base_registered(self, base_version: ModelVersion) -> List[ModelVersion]:
        """Execute all subscribed pipelines against a freshly registered base.

        Returns the list of derived versions that were registered.  Each
        derived version records the base as its parent, preserving lineage.
        """
        if not base_version.is_base():
            raise ValueError("on_base_registered expects a base version")
        pipelines = self._subscriptions.get(base_version.model_name, [])
        derived: List[ModelVersion] = []
        if not pipelines:
            # Still log the (base, 0-derived) event: lifecycle audits must
            # see every trigger, including the ones nothing subscribed to.
            self.trigger_log.append(
                {"base": base_version.version_id, "n_derived": 0, "pipelines": []}
            )
            return derived
        base_model = self.registry.load_model(base_version.version_id)
        for pipeline in pipelines:
            for recipe in pipeline.recipes:
                blob, tags = recipe.builder(base_model)
                tags = dict(tags)
                tags["recipe"] = recipe.name
                tags["pipeline"] = pipeline.name
                version = self.registry.register(
                    base_version.model_name,
                    blob,
                    kind=recipe.kind,
                    parents=(base_version.version_id,),
                    tags=tags,
                )
                derived.append(version)
        self.trigger_log.append(
            {
                "base": base_version.version_id,
                "n_derived": len(derived),
                "pipelines": [p.name for p in pipelines],
            }
        )
        return derived

    def register_and_trigger(self, model, tags: Optional[Dict[str, object]] = None) -> Tuple[ModelVersion, List[ModelVersion]]:
        """Convenience: register a base model then fire its pipelines."""
        base = self.registry.register_model(model, kind="base", tags=tags)
        return base, self.on_base_registered(base)
