"""Pipeline placement across a fleet.

Paper Section IV: containers "could then easily be deployed to different
target devices, solving the fragmentation issue … the containers could be
controlled by an orchestration framework that automatically deploys updated
models or that distributes an application over multiple devices".

The :class:`Orchestrator` installs a pipeline on fleet devices subject to
storage and capability constraints.  One :meth:`~Orchestrator.place` call
covers every device a pipeline goes to and builds one immutable
:class:`InstalledArtifact` (manifest included) that all of them hold;
:meth:`TinyMLOpsPlatform.deploy
<repro.core.platform.TinyMLOpsPlatform.deploy>` calls it once per compiled
pipeline, i.e. once per device class, not once per device.  What
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
from typing import Dict, List, Sequence

from repro.devices.fleet import Fleet, InstalledArtifact

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

        Paper Section IV's capability sandbox: :meth:`place` refuses a
        pipeline that needs a capability the device was not granted.
        """
        sandbox = Sandbox(granted=capabilities, device_id=device_id)
        self.sandboxes[device_id] = sandbox
        return sandbox

    def place(self, pipeline: Pipeline, device_ids: Sequence[str]) -> List[PlacementDecision]:
        """Install ``pipeline`` on each device with room and the capabilities.

        Size, required capabilities and the :class:`InstalledArtifact` (with
        its manifest) are built once per call, and every device placed holds
        that one immutable artifact.  Storage agrees with
        :meth:`EdgeDevice.install`, which *replaces* an artifact of the same
        id: an update may use the bytes it frees.
        """
        size, required = pipeline.size_bytes(), pipeline.required_capabilities()
        artifact = InstalledArtifact(pipeline.name, pipeline.version, size, metadata=pipeline.manifest())
        decisions: List[PlacementDecision] = []
        for device_id in device_ids:
            device = self.fleet.get(device_id)
            replaced = device.installed.get(pipeline.name)
            sandbox = self.sandboxes.get(device_id)
            if not device.can_install(size - (replaced.size_bytes if replaced else 0)):
                reason = "insufficient storage"
            elif sandbox is not None and not required <= sandbox.granted:
                reason = f"missing capabilities: {sorted(required - sandbox.granted)}"
            else:
                device.install(artifact)
                reason = "ok"
            decisions.append(PlacementDecision(device_id, pipeline.name, reason == "ok", reason))
        return decisions
