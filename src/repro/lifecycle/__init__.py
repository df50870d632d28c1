"""Closed-loop model lifecycle automation (drift → retrain → canary → promote)."""

from repro.lifecycle.pipeline import (
    CanaryReport,
    GateCheck,
    LifecycleConfig,
    LifecycleDecision,
    LifecyclePipeline,
    default_gates,
    degraded_candidate,
    oversized_candidate,
)

__all__ = [
    "CanaryReport",
    "GateCheck",
    "LifecycleConfig",
    "LifecycleDecision",
    "LifecyclePipeline",
    "default_gates",
    "degraded_candidate",
    "oversized_candidate",
]
