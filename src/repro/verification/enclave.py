"""Simulated Secure Processing Environment (TEE) execution.

Paper Section VI: verifiable execution can alternatively rely on hardware
Secure Processing Environments (Intel SGX, ARM TrustZone); MLCapsule reports
roughly 2x overhead for MobileNet-class models, and Slalom lowers the cost
by outsourcing the linear layers to the untrusted (fast) environment with
masking while keeping non-linearities inside the enclave.

Real TEEs are unavailable in this reproduction, so the
:class:`SimulatedEnclave` models the *cost structure*: code executed
"inside" pays a configurable slowdown factor, code outside runs at native
speed, and the Slalom-style partition additionally pays a masking/unmasking
cost proportional to the activations crossing the boundary.  Functional
behaviour (the numbers computed) is identical, which is what the rest of
the platform needs; DESIGN.md records this substitution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.nn.layers import Conv2D, Dense, DepthwiseConv2D

__all__ = ["EnclaveReport", "SimulatedEnclave", "slalom_partition"]


@dataclass
class EnclaveReport:
    """Cost accounting of one enclave-assisted inference."""

    plain_latency_s: float
    enclave_latency_s: float
    inside_fraction: float
    masking_bytes: int
    strategy: str

    @property
    def overhead_factor(self) -> float:
        """Enclave latency relative to plain execution."""
        return self.enclave_latency_s / max(self.plain_latency_s, 1e-12)


def slalom_partition(model) -> Tuple[List[int], List[int]]:
    """Split layer indices into (outside, inside) following Slalom's rule.

    Linear layers (Dense / Conv) run outside the enclave on the fast
    processor; everything stateful or non-linear stays inside.
    """
    outside: List[int] = []
    inside: List[int] = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, (Dense, Conv2D, DepthwiseConv2D)) and not layer.activation_name:
            outside.append(i)
        else:
            inside.append(i)
    return outside, inside


class SimulatedEnclave:
    """Executes a model with configurable enclave placement and cost model."""

    def __init__(self, slowdown: float = 2.0, masking_overhead_per_byte: float = 2e-9) -> None:
        if slowdown < 1.0:
            raise ValueError("enclave slowdown must be >= 1.0")
        self.slowdown = float(slowdown)
        self.masking_overhead_per_byte = float(masking_overhead_per_byte)

    # -- execution strategies ------------------------------------------------
    def run_all_inside(self, model, x: np.ndarray) -> Tuple[np.ndarray, EnclaveReport]:
        """MLCapsule-style: the whole model runs inside the enclave."""
        out, plain = self._timed_forward(model, x)
        report = EnclaveReport(
            plain_latency_s=plain,
            enclave_latency_s=plain * self.slowdown,
            inside_fraction=1.0,
            masking_bytes=0,
            strategy="all_inside",
        )
        return out, report

    def run_slalom(self, model, x: np.ndarray) -> Tuple[np.ndarray, EnclaveReport]:
        """Slalom-style: linear layers outside (masked), the rest inside."""
        outside, inside = slalom_partition(model)
        out = np.asarray(x, dtype=np.float64)
        plain_total = 0.0
        enclave_total = 0.0
        masking_bytes = 0
        for i, layer in enumerate(model.layers):
            start = time.perf_counter()
            out = layer.forward(out, training=False)
            elapsed = time.perf_counter() - start
            plain_total += elapsed
            if i in inside:
                enclave_total += elapsed * self.slowdown
            else:
                # Outside execution is native speed, but the activations must be
                # masked before leaving the enclave and unmasked afterwards.
                crossing = out.nbytes * 2
                masking_bytes += crossing
                enclave_total += elapsed + crossing * self.masking_overhead_per_byte
        inside_cost = sum(1 for i in inside) / max(len(model.layers), 1)
        report = EnclaveReport(
            plain_latency_s=plain_total,
            enclave_latency_s=enclave_total,
            inside_fraction=inside_cost,
            masking_bytes=masking_bytes,
            strategy="slalom",
        )
        return out, report

    def run_partial(self, model, x: np.ndarray, protected_layers: List[int]) -> Tuple[np.ndarray, EnclaveReport]:
        """Run only the listed layer indices inside the enclave.

        Models the pragmatic "evaluate only a part of the model on the
        trusted environment" option the paper mentions (ref [73]).
        """
        out = np.asarray(x, dtype=np.float64)
        plain_total = 0.0
        enclave_total = 0.0
        protected = set(protected_layers)
        for i, layer in enumerate(model.layers):
            start = time.perf_counter()
            out = layer.forward(out, training=False)
            elapsed = time.perf_counter() - start
            plain_total += elapsed
            enclave_total += elapsed * (self.slowdown if i in protected else 1.0)
        report = EnclaveReport(
            plain_latency_s=plain_total,
            enclave_latency_s=enclave_total,
            inside_fraction=len(protected) / max(len(model.layers), 1),
            masking_bytes=0,
            strategy="partial",
        )
        return out, report

    @staticmethod
    def _timed_forward(model, x: np.ndarray) -> Tuple[np.ndarray, float]:
        start = time.perf_counter()
        out = model.forward(np.asarray(x, dtype=np.float64), training=False)
        return out, time.perf_counter() - start
