"""Context-aware model selection.

Paper Section III-A: the best model variant for a device depends not only on
its hardware but on context — "if the device is connected to an external
power supply, energy consumption might be less of an issue … the user might
prefer a slower, more accurate model or a faster, less accurate model or
even a model that is fast to download on a slow network connection".

The :class:`ModelSelector` scores every candidate variant for a device
context under a :class:`SelectionPolicy` (accuracy/latency/energy/download
weights plus hard constraints) and picks the best feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.devices.cost import CostModel
from repro.devices.network import NetworkCondition
from repro.devices.profiles import DeviceProfile
from repro.optimize.pareto import ModelVariant

__all__ = ["SelectionPolicy", "SelectionResult", "ModelSelector"]


@dataclass(frozen=True)
class SelectionPolicy:
    """Weights and constraints for scoring model variants.

    Scores are "higher is better": accuracy contributes positively; latency,
    energy and download time contribute negatively with the given weights.
    Hard constraints (``max_latency_s``, ``max_size_bytes``,
    ``min_accuracy``) filter candidates before scoring.
    """

    accuracy_weight: float = 1.0
    latency_weight: float = 0.2
    energy_weight: float = 0.1
    download_weight: float = 0.05
    max_latency_s: Optional[float] = None
    max_size_bytes: Optional[int] = None
    min_accuracy: Optional[float] = None

    @classmethod
    def low_battery(cls) -> "SelectionPolicy":
        """Prefer cheap models when running on a draining battery."""
        return cls(accuracy_weight=0.5, latency_weight=0.3, energy_weight=1.0, download_weight=0.1)

    @classmethod
    def plugged_in(cls) -> "SelectionPolicy":
        """Energy is nearly free; chase accuracy."""
        return cls(accuracy_weight=1.0, latency_weight=0.2, energy_weight=0.01, download_weight=0.05)

    @classmethod
    def slow_network(cls) -> "SelectionPolicy":
        """Heavily penalize large downloads (paper's slow-connection case)."""
        return cls(accuracy_weight=0.8, latency_weight=0.2, energy_weight=0.1, download_weight=1.0)


@dataclass
class SelectionResult:
    """Chosen variant plus the per-candidate scores."""

    chosen: Optional[ModelVariant]
    scores: Dict[str, float]
    feasible: List[str]
    policy: SelectionPolicy


class ModelSelector:
    """Selects the best model variant for a device context."""

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model or CostModel()

    def policy_for_context(self, context: Dict[str, object]) -> SelectionPolicy:
        """Derive a sensible default policy from a device context snapshot."""
        if context.get("power_state") == "plugged_in":
            policy = SelectionPolicy.plugged_in()
        elif float(context.get("state_of_charge", 1.0)) < 0.3:
            policy = SelectionPolicy.low_battery()
        else:
            policy = SelectionPolicy()
        if context.get("network") in ("cellular", "lpwan", "offline") or context.get("metered"):
            policy = SelectionPolicy(
                accuracy_weight=policy.accuracy_weight,
                latency_weight=policy.latency_weight,
                energy_weight=policy.energy_weight,
                download_weight=1.0,
                max_latency_s=policy.max_latency_s,
                max_size_bytes=policy.max_size_bytes,
                min_accuracy=policy.min_accuracy,
            )
        return policy

    def select(
        self,
        variants: Sequence[ModelVariant],
        profile: DeviceProfile,
        network: Optional[NetworkCondition] = None,
        policy: Optional[SelectionPolicy] = None,
        context: Optional[Dict[str, object]] = None,
    ) -> SelectionResult:
        """Score every variant on a device and return the best feasible one.

        **Purity contract.**  The result is a pure function of ``(variants,
        profile, network, policy)``; ``context`` enters only through
        :meth:`policy_for_context`, and only when ``policy`` is not given.
        ``network`` counts as a whole: ``transfer_time`` reads bandwidth and
        latency, not just ``kind``.  ``TinyMLOpsPlatform.deploy`` and
        ``promote_model`` rely on this to select once per distinct
        ``(profile, network, policy)`` instead of once per device — a change
        that makes ``select`` read anything else must change that key too.
        """
        if policy is None:
            policy = self.policy_for_context(context or {})
        scores: Dict[str, float] = {}
        feasible: List[str] = []
        best: Optional[ModelVariant] = None
        best_score = -np.inf
        # Normalizers so weights are comparable across metrics.
        max_size = max((v.size_bytes for v in variants), default=1) or 1
        for variant in variants:
            # One cost-model walk per variant covers both the latency
            # fallback and the energy term (it used to run twice, with the
            # first result discarded whenever the latency table had a hit).
            cost = self.cost_model.model_inference_cost(profile, variant.model, bits=variant.bits)
            latency = variant.latency_s.get(profile.name)
            if latency is None:
                latency = cost.latency_s
            energy = cost.energy_j
            download_s = network.transfer_time(variant.size_bytes) if network is not None else 0.0
            # Offline devices will fetch the artifact at the next connectivity
            # window; penalize with a large finite value instead of ruling the
            # variant out entirely.
            if not np.isfinite(download_s):
                download_s = 3600.0
            if policy.max_latency_s is not None and latency > policy.max_latency_s:
                scores[variant.name] = -np.inf
                continue
            if policy.max_size_bytes is not None and variant.size_bytes > policy.max_size_bytes:
                scores[variant.name] = -np.inf
                continue
            if policy.min_accuracy is not None and variant.accuracy < policy.min_accuracy:
                scores[variant.name] = -np.inf
                continue
            if variant.size_bytes > profile.flash_bytes:
                scores[variant.name] = -np.inf
                continue
            feasible.append(variant.name)
            score = (
                policy.accuracy_weight * variant.accuracy
                - policy.latency_weight * np.log10(max(latency, 1e-9) / 1e-3 + 1.0)
                - policy.energy_weight * np.log10(max(energy, 1e-12) / 1e-6 + 1.0)
                - policy.download_weight * np.log10(max(download_s, 0.0) + 1.0)
                - 0.01 * variant.size_bytes / max_size
            )
            scores[variant.name] = float(score)
            if score > best_score:
                best_score = score
                best = variant
        return SelectionResult(chosen=best, scores=scores, feasible=feasible, policy=policy)
