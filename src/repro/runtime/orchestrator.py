"""Pipeline placement and deployment roll-outs across a fleet.

Paper Section IV: containers "could then easily be deployed to different
target devices, solving the fragmentation issue … the containers could be
controlled by an orchestration framework that automatically deploys updated
models or that distributes an application over multiple devices".

The :class:`Orchestrator` places pipelines on fleet devices subject to
storage/capability constraints, and :class:`RolloutPlan` implements staged /
canary roll-outs of new versions with automatic rollback when the canary's
health metric regresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.fleet import EdgeDevice, Fleet, InstalledArtifact

from .modules import Sandbox
from .pipeline import Pipeline

__all__ = ["PlacementDecision", "Orchestrator", "RolloutPlan"]


@dataclass
class PlacementDecision:
    """Outcome of trying to place one pipeline on one device."""

    device_id: str
    pipeline: str
    placed: bool
    reason: str = ""


class Orchestrator:
    """Places pipelines onto devices and tracks what runs where."""

    def __init__(self, fleet: Fleet) -> None:
        self.fleet = fleet
        self.placements: Dict[str, List[str]] = {}  # device_id -> pipeline names
        self.sandboxes: Dict[str, Sandbox] = {}
        self.log: List[PlacementDecision] = []

    def grant_capabilities(self, device_id: str, capabilities: Sequence[str]) -> Sandbox:
        """Configure the sandbox capabilities available on a device."""
        sandbox = Sandbox(granted=capabilities, device_id=device_id)
        self.sandboxes[device_id] = sandbox
        return sandbox

    def can_place(self, pipeline: Pipeline, device: EdgeDevice) -> Tuple[bool, str]:
        """Check storage and capability constraints for a placement.

        Storage agrees with :meth:`EdgeDevice.install`, which *replaces* an
        artifact of the same id: an update may use the bytes it frees.
        """
        replaced = device.installed.get(pipeline.name)
        if not device.can_install(pipeline.size_bytes() - (replaced.size_bytes if replaced else 0)):
            return False, "insufficient storage"
        sandbox = self.sandboxes.get(device.device_id)
        if sandbox is not None and not pipeline.required_capabilities() <= sandbox.granted:
            missing = pipeline.required_capabilities() - sandbox.granted
            return False, f"missing capabilities: {sorted(missing)}"
        return True, "ok"

    def place(self, pipeline: Pipeline, device_ids: Sequence[str]) -> List[PlacementDecision]:
        """Attempt to install a pipeline on the given devices."""
        decisions: List[PlacementDecision] = []
        for device_id in device_ids:
            device = self.fleet.get(device_id)
            ok, reason = self.can_place(pipeline, device)
            if ok:
                device.install(
                    InstalledArtifact(
                        artifact_id=pipeline.name,
                        version=pipeline.version,
                        size_bytes=pipeline.size_bytes(),
                        metadata=pipeline.manifest(),
                    )
                )
                self.placements.setdefault(device_id, []).append(pipeline.name)
            decisions.append(PlacementDecision(device_id, pipeline.name, ok, reason))
        self.log.extend(decisions)
        return decisions

    def place_everywhere(self, pipeline: Pipeline) -> Dict[str, int]:
        """Try to place on every device; returns success/failure counts."""
        decisions = self.place(pipeline, [d.device_id for d in self.fleet])
        placed = sum(1 for d in decisions if d.placed)
        return {"placed": placed, "failed": len(decisions) - placed}

    def devices_running(self, pipeline_name: str) -> List[str]:
        """Devices that currently host a pipeline."""
        return sorted(d for d, pipes in self.placements.items() if pipeline_name in pipes)

    def broadcast(self, pipeline: Pipeline, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run a placed pipeline over every hosting device's window.

        Devices without a configured sandbox execute through one batched
        :meth:`~repro.runtime.pipeline.Pipeline.run_many` sweep — the
        compiled plans behind the pipeline's stages see a single stacked
        batch instead of one call per device.  Sandboxed devices run
        per-device through their own :class:`~repro.runtime.modules.Sandbox`
        so capability enforcement and the execution audit log stay exactly
        as in individual :meth:`~repro.runtime.pipeline.Pipeline.run`
        calls; devices whose sandbox lacks a required capability are
        skipped up front (exactly the devices :meth:`place` would refuse).
        """
        required = pipeline.required_capabilities()
        unsandboxed: List[str] = []
        sandboxed: List[str] = []
        for device_id in self.devices_running(pipeline.name):
            if device_id not in inputs:
                continue
            sandbox = self.sandboxes.get(device_id)
            if sandbox is None:
                unsandboxed.append(device_id)
            elif required <= sandbox.granted:
                sandboxed.append(device_id)
        outputs: Dict[str, np.ndarray] = dict(
            zip(unsandboxed, pipeline.run_many([inputs[d] for d in unsandboxed]))
        )
        for device_id in sandboxed:
            outputs[device_id] = pipeline.run(inputs[device_id], sandbox=self.sandboxes[device_id])
        return outputs

    def coverage(self, pipeline_name: str) -> float:
        """Fraction of the fleet running a pipeline."""
        return len(self.devices_running(pipeline_name)) / max(len(self.fleet), 1)


@dataclass
class RolloutPlan:
    """Staged roll-out of a new pipeline/model version across a fleet.

    Stages are fractions of the fleet (e.g. ``[0.05, 0.25, 1.0]``).  After
    each stage the supplied ``health_check`` is evaluated on the devices
    updated so far; if it returns False the roll-out stops and the devices
    are rolled back to the previous version.
    """

    orchestrator: Orchestrator
    new_pipeline: Pipeline
    previous_pipeline: Optional[Pipeline] = None
    stages: Sequence[float] = (0.05, 0.25, 1.0)
    seed: int = 0
    history: List[Dict[str, object]] = field(default_factory=list)

    def execute(self, health_check: Callable[[List[str]], bool]) -> Dict[str, object]:
        """Run the staged roll-out; returns a summary including final status."""
        rng = np.random.default_rng(self.seed)
        device_ids = [d.device_id for d in self.orchestrator.fleet]
        rng.shuffle(device_ids)
        updated: List[str] = []
        status = "completed"
        for stage_fraction in self.stages:
            target_count = int(np.ceil(stage_fraction * len(device_ids)))
            batch = [d for d in device_ids[:target_count] if d not in updated]
            decisions = self.orchestrator.place(self.new_pipeline, batch)
            updated.extend(d.device_id for d in decisions if d.placed)
            healthy = bool(health_check(list(updated)))
            self.history.append(
                {
                    "stage_fraction": stage_fraction,
                    "updated_devices": len(updated),
                    "healthy": healthy,
                }
            )
            if not healthy:
                status = "rolled_back"
                self._rollback(updated)
                break
        return {
            "status": status,
            "updated_devices": len(updated) if status == "completed" else 0,
            "stages_run": len(self.history),
        }

    def _rollback(self, device_ids: Sequence[str]) -> None:
        for device_id in device_ids:
            device = self.orchestrator.fleet.get(device_id)
            device.uninstall(self.new_pipeline.name)
            pipes = self.orchestrator.placements.get(device_id, [])
            if self.new_pipeline.name in pipes:
                pipes.remove(self.new_pipeline.name)
            if self.previous_pipeline is not None and self.previous_pipeline.name not in pipes:
                ok, _ = self.orchestrator.can_place(self.previous_pipeline, device)
                if ok:
                    self.orchestrator.place(self.previous_pipeline, [device_id])
