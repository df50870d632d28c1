"""Pipeline placement across a fleet.

Paper Section IV: containers "could then easily be deployed to different
target devices, solving the fragmentation issue … the containers could be
controlled by an orchestration framework that automatically deploys updated
models or that distributes an application over multiple devices".

The :class:`Orchestrator` installs a pipeline on fleet devices subject to
storage and capability constraints; :meth:`TinyMLOpsPlatform.deploy
<repro.core.platform.TinyMLOpsPlatform.deploy>` places through it.  What
runs where is recorded on the device (:attr:`EdgeDevice.installed
<repro.devices.fleet.EdgeDevice.installed>`) and in the backend
(:attr:`ModelRegistry.deployments
<repro.registry.versioning.ModelRegistry.deployments>`), nowhere else.
Staged roll-outs with automatic rollback go through
:class:`~repro.lifecycle.LifecyclePipeline`: a canary, a gate, then
:meth:`~repro.core.platform.TinyMLOpsPlatform.promote_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.devices.fleet import EdgeDevice, Fleet, InstalledArtifact

from .modules import Sandbox
from .pipeline import Pipeline

__all__ = ["PlacementDecision", "Orchestrator"]


@dataclass
class PlacementDecision:
    """Outcome of trying to place one pipeline on one device."""

    device_id: str
    pipeline: str
    placed: bool
    reason: str = ""


class Orchestrator:
    """Places pipelines onto devices; the devices record what they run."""

    def __init__(self, fleet: Fleet) -> None:
        self.fleet = fleet
        self.sandboxes: Dict[str, Sandbox] = {}

    def grant_capabilities(self, device_id: str, capabilities: Sequence[str]) -> Sandbox:
        """Configure the sandbox capabilities available on a device.

        Paper Section IV's capability sandbox: :meth:`can_place` refuses a
        pipeline that needs a capability the device was not granted.
        """
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
            decisions.append(PlacementDecision(device_id, pipeline.name, ok, reason))
        return decisions
