"""Device compatibility checking for graph IR artifacts.

Paper Section IV: "To deploy the application on a new device, we will first
need to check that all required operations are supported by the underlying
platform."  The :class:`CompatibilityChecker` evaluates a graph against a
:class:`~repro.devices.profiles.DeviceProfile` and reports which operators,
bit widths and resource limits are violated, together with remediation
hints that the compiler can act on (quantize further, fold BatchNorm, pick
a smaller variant, offload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.devices.profiles import DeviceProfile

from .analysis import graph_cost
from .graph import GraphIR

__all__ = ["CompatibilityIssue", "CompatibilityReport", "CompatibilityChecker"]


@dataclass(frozen=True)
class CompatibilityIssue:
    """A single reason why a graph cannot run on a device as-is."""

    kind: str  # "unsupported_op" | "unsupported_bitwidth" | "flash" | "ram"
    node: Optional[str]
    detail: str
    remediation: str = ""


@dataclass
class CompatibilityReport:
    """Outcome of checking one graph against one device profile."""

    graph_name: str
    device_name: str
    compatible: bool
    issues: List[CompatibilityIssue] = field(default_factory=list)
    required_flash_bytes: int = 0
    required_ram_bytes: int = 0

    def issue_kinds(self) -> List[str]:
        """Distinct issue categories present in this report."""
        return sorted({i.kind for i in self.issues})

    def summary(self) -> str:
        status = "COMPATIBLE" if self.compatible else "INCOMPATIBLE"
        lines = [f"{self.graph_name} on {self.device_name}: {status}"]
        for issue in self.issues:
            lines.append(f"  [{issue.kind}] {issue.detail} -> {issue.remediation}")
        return "\n".join(lines)


class CompatibilityChecker:
    """Checks graphs against device profiles and suggests remediations."""

    def __init__(self, ram_safety_factor: float = 1.1) -> None:
        # Activations plus runtime bookkeeping must fit in RAM with headroom.
        self.ram_safety_factor = float(ram_safety_factor)

    def check(self, graph: GraphIR, profile: DeviceProfile, bits: Optional[int] = None) -> CompatibilityReport:
        """Full compatibility report for ``graph`` on ``profile``.

        ``bits`` overrides the graph's annotated default bit width when
        probing hypothetical quantization levels.
        """
        issues: List[CompatibilityIssue] = []
        default_bits = bits if bits is not None else int(graph.metadata.get("bits", 32))

        # 1. Operator support.
        for node in graph.nodes:
            if not profile.supports_op(node.op_type):
                issues.append(
                    CompatibilityIssue(
                        kind="unsupported_op",
                        node=node.name,
                        detail=f"op {node.op_type!r} not supported by {profile.name}",
                        remediation="rewrite/lower the op, fold it away, or choose another variant",
                    )
                )
            fused = node.attrs.get("fused_activation")
            if fused and not profile.supports_op(str(fused)):
                issues.append(
                    CompatibilityIssue(
                        kind="unsupported_op",
                        node=node.name,
                        detail=f"fused activation {fused!r} not supported by {profile.name}",
                        remediation="unfuse and lower the activation",
                    )
                )

        # 2. Bit-width support (only parameterized nodes matter).
        node_bits = sorted(
            {int(n.attrs.get("bits", default_bits)) for n in graph.nodes if n.params}
        )
        for b in node_bits:
            if not profile.supports_bitwidth(b):
                issues.append(
                    CompatibilityIssue(
                        kind="unsupported_bitwidth",
                        node=None,
                        detail=f"{b}-bit kernels unavailable on {profile.name} (native: {sorted(profile.supported_bitwidths)})",
                        remediation="requantize to a supported width or accept emulation overhead",
                    )
                )

        # 3. Storage and memory.
        cost = graph_cost(graph, default_bits=default_bits)
        flash_needed = int(cost["size_bytes"])
        ram_needed = int(cost["peak_activation_bytes"] * self.ram_safety_factor)
        if flash_needed > profile.flash_bytes:
            issues.append(
                CompatibilityIssue(
                    kind="flash",
                    node=None,
                    detail=f"model needs {flash_needed} B flash, device has {profile.flash_bytes} B",
                    remediation="quantize/prune the model or select a smaller variant",
                )
            )
        if ram_needed > profile.ram_bytes:
            issues.append(
                CompatibilityIssue(
                    kind="ram",
                    node=None,
                    detail=f"peak activations need {ram_needed} B RAM, device has {profile.ram_bytes} B",
                    remediation="reduce input resolution or split execution with the cloud",
                )
            )

        # An unsupported bit width alone does not make deployment impossible
        # (emulation is allowed); unsupported ops or resource overruns do.
        blocking = [i for i in issues if i.kind in ("unsupported_op", "flash", "ram")]
        return CompatibilityReport(
            graph_name=graph.name,
            device_name=profile.name,
            compatible=not blocking,
            issues=issues,
            required_flash_bytes=flash_needed,
            required_ram_bytes=ram_needed,
        )

    def coverage(self, graph: GraphIR, profiles: Sequence[DeviceProfile], bits: Optional[int] = None) -> Dict[str, CompatibilityReport]:
        """Check one graph against many device profiles."""
        return {p.name: self.check(graph, p, bits=bits) for p in profiles}

    def fleet_coverage_fraction(self, graph: GraphIR, profiles: Sequence[DeviceProfile], bits: Optional[int] = None) -> float:
        """Fraction of profiles on which the graph can run as-is."""
        if not profiles:
            return 0.0
        reports = self.coverage(graph, profiles, bits=bits)
        return sum(1 for r in reports.values() if r.compatible) / len(profiles)
