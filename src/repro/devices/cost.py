"""Roofline-style cost models: latency, energy and memory of model execution.

The cost model is what lets the platform reason about deployment without
real hardware.  It estimates, for a model (expressed as FLOPs and bytes
moved) on a given :class:`~repro.devices.profiles.DeviceProfile`:

* latency = max(compute time, memory-bound time) x bit-width factor,
* energy  = compute energy + data-movement energy,
* peak memory from the activation schedule.

Low-precision execution only accelerates inference when the device has
native kernels for that bit-width (paper Section III-A); otherwise a small
emulation penalty is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .profiles import DeviceProfile

__all__ = ["ExecutionCost", "CostModel", "model_flops_and_bytes"]


@dataclass(frozen=True)
class ExecutionCost:
    """Estimated cost of one inference (or one training step) on a device."""

    latency_s: float
    energy_j: float
    peak_memory_bytes: float
    flops: float
    bytes_moved: float

    def scaled(self, factor: float) -> "ExecutionCost":
        """Cost multiplied by ``factor`` (e.g. number of queries)."""
        return ExecutionCost(
            latency_s=self.latency_s * factor,
            energy_j=self.energy_j * factor,
            peak_memory_bytes=self.peak_memory_bytes,
            flops=self.flops * factor,
            bytes_moved=self.bytes_moved * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "latency_ms": self.latency_s * 1e3,
            "energy_mj": self.energy_j * 1e3,
            "peak_memory_kb": self.peak_memory_bytes / 1024,
            "mflops": self.flops / 1e6,
        }


def model_flops_and_bytes(model, bits: int = 32) -> Tuple[float, float, float]:
    """Estimate FLOPs, bytes moved and peak activation memory for a Sequential.

    Works directly on :class:`repro.nn.Sequential` layers using their configs
    and parameter counts; the exchange IR has its own, more precise
    estimator (:func:`repro.exchange.analysis.graph_cost`).
    Returns ``(flops, bytes_moved, peak_activation_bytes)`` per example.
    """
    from repro.nn.layers import (
        AvgPool2D,
        BatchNorm,
        Conv2D,
        Dense,
        DepthwiseConv2D,
        GlobalAvgPool2D,
        MaxPool2D,
    )

    bytes_per_el = max(bits, 8) / 8.0
    flops = 0.0
    bytes_moved = 0.0
    peak_act = float(math.prod(model.input_shape)) * bytes_per_el
    shape = model.input_shape
    for layer in model.layers:
        out_shape = layer.output_shape(shape)
        in_elems = float(math.prod(shape))
        out_elems = float(math.prod(out_shape))
        params = float(layer.num_params())
        if isinstance(layer, Dense):
            flops += 2.0 * shape[0] * layer.units
        elif isinstance(layer, Conv2D):
            k = layer.kernel_size
            flops += 2.0 * out_elems * k * k * shape[-1]
        elif isinstance(layer, DepthwiseConv2D):
            k = layer.kernel_size
            flops += 2.0 * out_elems * k * k
        elif isinstance(layer, (MaxPool2D, AvgPool2D)):
            flops += in_elems
        elif isinstance(layer, (BatchNorm, GlobalAvgPool2D)):
            flops += 2.0 * in_elems
        else:
            flops += in_elems  # activations and element-wise ops
        bytes_moved += (in_elems + out_elems + params) * bytes_per_el
        peak_act = max(peak_act, (in_elems + out_elems) * bytes_per_el)
        shape = out_shape
    return flops, bytes_moved, peak_act


class CostModel:
    """Maps (model characteristics, device profile) to an execution cost."""

    def __init__(self, emulation_penalty: float = 1.25, training_factor: float = 3.0) -> None:
        self.emulation_penalty = float(emulation_penalty)
        self.training_factor = float(training_factor)

    # -- core estimators -------------------------------------------------
    def inference_cost(
        self,
        profile: DeviceProfile,
        flops: float,
        bytes_moved: float,
        peak_memory: float,
        bits: int = 32,
    ) -> ExecutionCost:
        """Latency/energy of one forward pass."""
        native = profile.supports_bitwidth(bits)
        # Native low-precision kernels speed up compute roughly linearly in
        # the width reduction (paper Sec. III-A / refs [18]-[22]); emulated
        # low precision gets no speed-up and pays a small penalty.
        if native:
            speedup = 32.0 / max(bits, 1) if bits < 32 else 1.0
            penalty = 1.0
        else:
            speedup = 1.0
            penalty = self.emulation_penalty
        compute_time = flops / (profile.peak_flops * speedup)
        memory_time = bytes_moved / profile.memory_bandwidth
        latency = max(compute_time, memory_time) * penalty
        energy = flops * profile.energy_per_flop / speedup + bytes_moved * profile.energy_per_byte
        return ExecutionCost(
            latency_s=latency,
            energy_j=energy,
            peak_memory_bytes=peak_memory,
            flops=flops,
            bytes_moved=bytes_moved,
        )

    def model_inference_cost(self, profile: DeviceProfile, model, bits: int = 32) -> ExecutionCost:
        """Convenience wrapper running the FLOP estimator on a Sequential."""
        flops, bytes_moved, peak = model_flops_and_bytes(model, bits=bits)
        return self.inference_cost(profile, flops, bytes_moved, peak, bits=bits)

    def training_step_cost(
        self,
        profile: DeviceProfile,
        flops: float,
        bytes_moved: float,
        peak_memory: float,
        bits: int = 32,
    ) -> ExecutionCost:
        """Cost of one forward+backward+update step (≈3x forward, Sec. III-D)."""
        fwd = self.inference_cost(profile, flops, bytes_moved, peak_memory, bits)
        return ExecutionCost(
            latency_s=fwd.latency_s * self.training_factor,
            energy_j=fwd.energy_j * self.training_factor,
            peak_memory_bytes=fwd.peak_memory_bytes * 2.0,
            flops=fwd.flops * self.training_factor,
            bytes_moved=fwd.bytes_moved * self.training_factor,
        )

    def transmission_cost(self, profile: DeviceProfile, payload_bytes: float, bandwidth_bps: float) -> ExecutionCost:
        """Latency/energy of sending ``payload_bytes`` over the current link."""
        if bandwidth_bps <= 0:
            return ExecutionCost(float("inf"), float("inf"), 0.0, 0.0, payload_bytes)
        latency = payload_bytes * 8.0 / bandwidth_bps
        energy = payload_bytes * profile.radio_energy_per_byte
        return ExecutionCost(latency, energy, 0.0, 0.0, payload_bytes)

    # -- feasibility -----------------------------------------------------
    def fits_device(self, profile: DeviceProfile, model_bytes: float, peak_memory: float) -> bool:
        """Does the model fit in flash and its activations in RAM?"""
        return model_bytes <= profile.flash_bytes and peak_memory <= profile.ram_bytes

    def enclave_cost(self, profile: DeviceProfile, base: ExecutionCost, fraction_in_enclave: float = 1.0) -> ExecutionCost:
        """Cost when ``fraction_in_enclave`` of the compute runs in the SPE.

        Models the Slalom/MLCapsule observation (paper Sec. VI) that running
        everything inside a TEE costs roughly ``enclave_slowdown``x, while
        hybrid schemes only pay it on the protected fraction.
        """
        if not profile.has_secure_enclave:
            raise ValueError(f"device {profile.name} has no secure enclave")
        frac = float(np.clip(fraction_in_enclave, 0.0, 1.0))
        factor = (1.0 - frac) + frac * profile.enclave_slowdown
        return ExecutionCost(
            latency_s=base.latency_s * factor,
            energy_j=base.energy_j * factor,
            peak_memory_bytes=base.peak_memory_bytes,
            flops=base.flops,
            bytes_moved=base.bytes_moved,
        )
