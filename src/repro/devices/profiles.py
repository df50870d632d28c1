"""Device profiles: the fragmented edge hardware landscape in data form.

Paper Section IV describes the edge landscape as "much more fragmented
[than the cloud] with a wide range of different devices from different
vendors, each with different software support and hardware capabilities".
A :class:`DeviceProfile` captures exactly the attributes that matter for a
TinyMLOps platform:

* compute / memory / storage envelope,
* which graph operators the runtime on that device supports,
* which numeric bit-widths execute natively (and hence get a speed-up),
* power-related attributes used by the battery and scheduling models.

A catalogue of representative profiles (Cortex-M-class MCU, DSP-equipped
sensor node, mid-range phone, flagship phone with NPU, edge server with GPU)
is provided along with a generator for randomized fleets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

import numpy as np

__all__ = [
    "DeviceClass",
    "DeviceProfile",
    "STANDARD_PROFILES",
    "get_profile",
    "list_profiles",
    "random_fleet_profiles",
]


# Graph operators understood by the exchange IR (see repro.exchange.ops).
_BASE_OPS = frozenset(
    {
        "dense",
        "conv2d",
        "relu",
        "relu6",
        "sigmoid",
        "tanh",
        "softmax",
        "maxpool2d",
        "avgpool2d",
        "global_avgpool2d",
        "flatten",
        "batchnorm",
        "add",
        "mul",
        "quantize",
        "dequantize",
        "normalize",
        "argmax",
        "threshold",
    }
)

_ADVANCED_OPS = frozenset({"depthwise_conv2d", "dropout", "concat", "reshape", "lstm", "attention"})


class DeviceClass:
    """Symbolic device tiers used throughout the platform."""

    MCU = "mcu"
    SENSOR_DSP = "sensor_dsp"
    PHONE_MID = "phone_mid"
    PHONE_FLAGSHIP = "phone_flagship"
    EDGE_SERVER = "edge_server"
    CLOUD = "cloud"

    ALL = (MCU, SENSOR_DSP, PHONE_MID, PHONE_FLAGSHIP, EDGE_SERVER, CLOUD)


@dataclass(frozen=True)
class DeviceProfile:
    """Static hardware/software description of one device type.

    Attributes
    ----------
    name:
        Profile identifier, e.g. ``"mcu-m4"``.
    device_class:
        One of :class:`DeviceClass`.
    peak_flops:
        Peak sustained multiply-accumulate throughput in FLOP/s.
    memory_bandwidth:
        Sustained memory bandwidth in bytes/s (roofline's second ceiling).
    ram_bytes:
        Available RAM for activations and runtime state.
    flash_bytes:
        Available storage for model weights and the portable modules.
    supported_ops:
        Operators the on-device runtime can execute.
    supported_bitwidths:
        Numeric bit-widths with native kernels.  Executing a model quantized
        to an unsupported width forces emulation (no speed-up, possible
        overhead) — the paper's "low precision … do not necessarily
        guarantee faster models on all hardware" point.
    energy_per_flop:
        Joules consumed per FLOP of compute.
    energy_per_byte:
        Joules consumed per byte moved over the memory bus.
    radio_energy_per_byte:
        Joules per byte transmitted over the network interface.
    has_secure_enclave:
        Whether a Secure Processing Environment (TEE) is present (Sec. VI).
    enclave_slowdown:
        Multiplicative latency factor for code run inside the enclave.
    accelerator:
        Optional accelerator tag (``"npu"``, ``"gpu"``, ``"dsp"``) used by
        vendor-specific lowering passes.
    """

    name: str
    device_class: str
    peak_flops: float
    memory_bandwidth: float
    ram_bytes: int
    flash_bytes: int
    supported_ops: FrozenSet[str] = _BASE_OPS
    supported_bitwidths: FrozenSet[int] = frozenset({32, 8})
    energy_per_flop: float = 1e-9
    energy_per_byte: float = 5e-9
    radio_energy_per_byte: float = 1e-7
    has_secure_enclave: bool = False
    enclave_slowdown: float = 2.0
    accelerator: Optional[str] = None
    battery_capacity_j: float = 5000.0

    def supports_op(self, op_type: str) -> bool:
        """True when the on-device runtime has a kernel for ``op_type``."""
        return op_type in self.supported_ops

    def supports_bitwidth(self, bits: int) -> bool:
        """True when ``bits``-wide arithmetic executes natively."""
        return int(bits) in self.supported_bitwidths

    def describe(self) -> Dict[str, object]:
        """Plain-dict summary used in manifests and reports."""
        return {
            "name": self.name,
            "class": self.device_class,
            "peak_gflops": self.peak_flops / 1e9,
            "ram_kb": self.ram_bytes / 1024,
            "flash_kb": self.flash_bytes / 1024,
            "bitwidths": sorted(self.supported_bitwidths),
            "accelerator": self.accelerator,
            "secure_enclave": self.has_secure_enclave,
        }


STANDARD_PROFILES: Dict[str, DeviceProfile] = {
    "mcu-m0": DeviceProfile(
        name="mcu-m0",
        device_class=DeviceClass.MCU,
        peak_flops=5e6,
        memory_bandwidth=2e7,
        ram_bytes=32 * 1024,
        flash_bytes=256 * 1024,
        supported_ops=frozenset(_BASE_OPS - {"conv2d", "batchnorm", "softmax"}),
        supported_bitwidths=frozenset({8}),
        energy_per_flop=2e-10,
        energy_per_byte=1e-9,
        radio_energy_per_byte=2e-7,
        battery_capacity_j=1500.0,
    ),
    "mcu-m4": DeviceProfile(
        name="mcu-m4",
        device_class=DeviceClass.MCU,
        peak_flops=8e7,
        memory_bandwidth=1e8,
        ram_bytes=256 * 1024,
        flash_bytes=1024 * 1024,
        supported_ops=frozenset(_BASE_OPS | {"depthwise_conv2d"}),
        supported_bitwidths=frozenset({32, 8}),
        energy_per_flop=1.5e-10,
        energy_per_byte=8e-10,
        radio_energy_per_byte=1.5e-7,
        battery_capacity_j=2500.0,
    ),
    "sensor-dsp": DeviceProfile(
        name="sensor-dsp",
        device_class=DeviceClass.SENSOR_DSP,
        peak_flops=4e8,
        memory_bandwidth=4e8,
        ram_bytes=2 * 1024 * 1024,
        flash_bytes=8 * 1024 * 1024,
        supported_ops=frozenset(_BASE_OPS | {"depthwise_conv2d", "reshape"}),
        supported_bitwidths=frozenset({8, 4, 2, 1}),
        energy_per_flop=8e-11,
        energy_per_byte=5e-10,
        radio_energy_per_byte=1e-7,
        accelerator="dsp",
        battery_capacity_j=4000.0,
    ),
    "phone-mid": DeviceProfile(
        name="phone-mid",
        device_class=DeviceClass.PHONE_MID,
        peak_flops=2e10,
        memory_bandwidth=8e9,
        ram_bytes=512 * 1024 * 1024,
        flash_bytes=4 * 1024 * 1024 * 1024,
        supported_ops=frozenset(_BASE_OPS | _ADVANCED_OPS - {"attention", "lstm"}),
        supported_bitwidths=frozenset({32, 16, 8}),
        energy_per_flop=5e-11,
        energy_per_byte=3e-10,
        radio_energy_per_byte=6e-8,
        battery_capacity_j=40000.0,
    ),
    "phone-flagship": DeviceProfile(
        name="phone-flagship",
        device_class=DeviceClass.PHONE_FLAGSHIP,
        peak_flops=2e11,
        memory_bandwidth=3e10,
        ram_bytes=2 * 1024 * 1024 * 1024,
        flash_bytes=16 * 1024 * 1024 * 1024,
        supported_ops=frozenset(_BASE_OPS | _ADVANCED_OPS),
        supported_bitwidths=frozenset({32, 16, 8, 4}),
        energy_per_flop=2e-11,
        energy_per_byte=2e-10,
        radio_energy_per_byte=5e-8,
        has_secure_enclave=True,
        enclave_slowdown=2.0,
        accelerator="npu",
        battery_capacity_j=60000.0,
    ),
    "edge-server": DeviceProfile(
        name="edge-server",
        device_class=DeviceClass.EDGE_SERVER,
        peak_flops=5e12,
        memory_bandwidth=3e11,
        ram_bytes=32 * 1024 * 1024 * 1024,
        flash_bytes=512 * 1024 * 1024 * 1024,
        supported_ops=frozenset(_BASE_OPS | _ADVANCED_OPS),
        supported_bitwidths=frozenset({32, 16, 8, 4, 2, 1}),
        energy_per_flop=1e-11,
        energy_per_byte=1e-10,
        radio_energy_per_byte=1e-8,
        has_secure_enclave=True,
        enclave_slowdown=1.5,
        accelerator="gpu",
        battery_capacity_j=float("inf"),
    ),
    "cloud": DeviceProfile(
        name="cloud",
        device_class=DeviceClass.CLOUD,
        peak_flops=5e13,
        memory_bandwidth=2e12,
        ram_bytes=256 * 1024 * 1024 * 1024,
        flash_bytes=10 * 1024 * 1024 * 1024 * 1024,
        supported_ops=frozenset(_BASE_OPS | _ADVANCED_OPS),
        supported_bitwidths=frozenset({32, 16, 8, 4, 2, 1}),
        energy_per_flop=5e-12,
        energy_per_byte=5e-11,
        radio_energy_per_byte=5e-9,
        has_secure_enclave=True,
        enclave_slowdown=1.2,
        accelerator="gpu",
        battery_capacity_j=float("inf"),
    ),
}


def get_profile(name: str) -> DeviceProfile:
    """Look up a standard profile by name."""
    if name not in STANDARD_PROFILES:
        raise KeyError(f"unknown device profile {name!r}; known: {sorted(STANDARD_PROFILES)}")
    return STANDARD_PROFILES[name]


def list_profiles() -> List[str]:
    """Names of all standard profiles, smallest to largest."""
    return list(STANDARD_PROFILES)


def random_fleet_profiles(
    n_devices: int,
    mix: Optional[Dict[str, float]] = None,
    seed: int = 0,
) -> List[DeviceProfile]:
    """Sample a heterogeneous fleet of device profiles.

    ``mix`` maps profile names to sampling weights; the default mix is
    dominated by MCUs and mid-range phones, matching the long tail of real
    IoT deployments.
    """
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    if mix is None:
        mix = {
            "mcu-m0": 0.2,
            "mcu-m4": 0.25,
            "sensor-dsp": 0.15,
            "phone-mid": 0.2,
            "phone-flagship": 0.15,
            "edge-server": 0.05,
        }
    names = list(mix)
    weights = np.array([mix[n] for n in names], dtype=np.float64)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(names), size=n_devices, p=weights)
    return [STANDARD_PROFILES[names[i]] for i in picks]
