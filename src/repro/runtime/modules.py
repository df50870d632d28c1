"""Portable processing modules and the capability sandbox.

Paper Sections III-A / IV: pipelines need "data preprocessing and
postprocessing operations such as normalization, thresholding or even some
control logic", packaged as "portable and re-usable modules" (the hotg.ai
WebAssembly/Rune approach, ref [24]) and run "in an isolated sandbox [to]
restrict the access to parts of the operating system or external sensors".

A :class:`Module` is a named, versioned, signed processing block with a
declared set of required capabilities.  The :class:`Sandbox` refuses to run
a module whose requirements exceed the capabilities granted on the device.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

import numpy as np

__all__ = [
    "Capability",
    "Module",
    "Sandbox",
    "SandboxViolation",
    "argmax_module",
    "softmax_module",
    "model_module",
]


class Capability:
    """Capabilities a module may request and a sandbox may grant."""

    COMPUTE = "compute"
    SENSOR_CAMERA = "sensor:camera"
    SENSOR_MICROPHONE = "sensor:microphone"
    SENSOR_IMU = "sensor:imu"
    NETWORK = "network"
    STORAGE = "storage"
    SECURE_ENCLAVE = "secure_enclave"

    ALL = (COMPUTE, SENSOR_CAMERA, SENSOR_MICROPHONE, SENSOR_IMU, NETWORK, STORAGE, SECURE_ENCLAVE)


class SandboxViolation(PermissionError):
    """Raised when a module requires a capability the sandbox did not grant."""


@dataclass
class Module:
    """A portable processing block (the WASM-container stand-in).

    Attributes
    ----------
    name / version:
        Identity of the module; the digest covers both plus the declared
        capabilities, so tampering with the manifest is detectable.
    fn:
        The processing function ``(np.ndarray) -> np.ndarray``.
    requires:
        Capabilities the module needs at runtime.
    size_bytes:
        Approximate packaged size (used by placement decisions).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    version: str = "1.0.0"
    requires: FrozenSet[str] = frozenset({Capability.COMPUTE})
    size_bytes: int = 1024
    metadata: Dict[str, object] = field(default_factory=dict)

    def digest(self) -> str:
        """Manifest digest binding name, version and capability set."""
        payload = f"{self.name}|{self.version}|{','.join(sorted(self.requires))}".encode()
        return hashlib.sha256(payload).hexdigest()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


class Sandbox:
    """Capability-based isolation for module execution on a device."""

    def __init__(self, granted: Sequence[str] = (Capability.COMPUTE,), device_id: str = "") -> None:
        unknown = set(granted) - set(Capability.ALL)
        if unknown:
            raise ValueError(f"unknown capabilities {sorted(unknown)}")
        self.granted: FrozenSet[str] = frozenset(granted)
        self.device_id = device_id
        self.execution_log: List[Dict[str, object]] = []

    def run(self, module: Module, x: np.ndarray) -> np.ndarray:
        """Execute a module, enforcing the capability policy."""
        missing = module.requires - self.granted
        if missing:
            raise SandboxViolation(
                f"module {module.name!r} requires {sorted(missing)} not granted on {self.device_id or 'device'}"
            )
        out = module(x)
        self.execution_log.append({"module": module.name, "version": module.version, "n": int(np.asarray(x).shape[0])})
        return out


# ---------------------------------------------------------------------------
# standard module factories
# ---------------------------------------------------------------------------

def argmax_module(name: str = "argmax") -> Module:
    """Class decision from logits/probabilities."""
    def fn(x: np.ndarray) -> np.ndarray:
        return np.asarray(x).argmax(axis=-1)

    return Module(name=name, fn=fn, size_bytes=128)


def softmax_module(name: str = "softmax") -> Module:
    """Convert logits into probabilities."""
    from repro.nn.activations import softmax

    return Module(name=name, fn=lambda x: softmax(np.asarray(x, dtype=np.float64), axis=-1), size_bytes=128)


def model_module(model, name: Optional[str] = None, bits: int = 32) -> Module:
    """Wrap a :class:`repro.nn.Sequential` as a pipeline module."""
    return Module(
        name=name or model.name,
        fn=lambda x: model.forward(np.asarray(x, dtype=np.float64), training=False),
        requires=frozenset({Capability.COMPUTE}),
        size_bytes=int(np.ceil(model.num_params() * bits / 8)),
        metadata={"kind": "model", "params": model.num_params(), "bits": bits},
    )
