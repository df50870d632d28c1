"""Target-aware compiler: lower a graph for a specific device profile.

This plays the role TVM / OpenVINO / TFLite converters play in the paper's
Section IV: given a trained model (as graph IR) and a target device profile,
run the lowering passes, choose a bit width the target supports, verify
compatibility and emit a :class:`CompiledArtifact` ready for the runtime to
package and the registry to store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.devices.cost import CostModel, ExecutionCost
from repro.devices.profiles import DeviceProfile

from .analysis import graph_cost, memory_plan
from .compat import CompatibilityChecker, CompatibilityReport
from .graph import GraphIR
from .passes import PassPipeline, annotate_quantization, insert_postprocessing, insert_preprocessing

__all__ = ["CompiledArtifact", "CompilationError", "Compiler"]


class CompilationError(RuntimeError):
    """Raised when a graph cannot be lowered for the requested target."""

    def __init__(self, message: str, report: Optional[CompatibilityReport] = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass
class CompiledArtifact:
    """The deployable result of compiling a graph for one device profile.

    Attributes
    ----------
    graph:
        The lowered graph (passes applied, quantization annotated).
    target:
        Device profile name this artifact was compiled for.
    bits:
        Weight bit width selected for the target.
    size_bytes:
        Serialized weight size at the chosen precision.
    estimated_cost:
        Predicted single-inference cost on the target.
    report:
        The compatibility report that cleared this artifact.
    """

    graph: GraphIR
    target: str
    bits: int
    size_bytes: int
    estimated_cost: ExecutionCost
    report: CompatibilityReport
    memory_plan: Dict[str, object] = field(default_factory=dict)

    @property
    def artifact_id(self) -> str:
        """Content-derived identifier (graph fingerprint + target)."""
        return f"{self.graph.fingerprint()[:16]}-{self.target}-{self.bits}b"

    def describe(self) -> Dict[str, object]:
        return {
            "artifact_id": self.artifact_id,
            "graph": self.graph.name,
            "target": self.target,
            "bits": self.bits,
            "size_kb": self.size_bytes / 1024,
            "latency_ms": self.estimated_cost.latency_s * 1e3,
            "energy_mj": self.estimated_cost.energy_j * 1e3,
        }


class Compiler:
    """Lower graphs for device targets, selecting precision automatically."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        checker: Optional[CompatibilityChecker] = None,
        pipeline: Optional[PassPipeline] = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.checker = checker or CompatibilityChecker()
        self.pipeline = pipeline or PassPipeline.standard_inference()

    # -- precision selection ---------------------------------------------
    def select_bits(self, profile: DeviceProfile, requested_bits: Optional[int] = None) -> int:
        """Pick the widest requested/native precision the device supports.

        If the caller requests a specific width that the device supports it is
        used unchanged; otherwise we fall back to the widest natively
        supported width <= 32, preferring 8-bit for MCU-class devices.
        """
        if requested_bits is not None and profile.supports_bitwidth(requested_bits):
            return int(requested_bits)
        supported = sorted(b for b in profile.supported_bitwidths if b <= 32)
        if not supported:
            return 32
        if requested_bits is not None:
            # Choose the closest supported width not exceeding the request,
            # else the smallest supported width.
            not_larger = [b for b in supported if b <= requested_bits]
            return int(max(not_larger) if not_larger else min(supported))
        return int(max(supported))

    # -- main entry point ----------------------------------------------------
    def compile(
        self,
        graph: GraphIR,
        profile: DeviceProfile,
        bits: Optional[int] = None,
        add_preprocessing: Optional[Dict[str, object]] = None,
        add_postprocessing: Optional[str] = None,
        strict: bool = True,
    ) -> CompiledArtifact:
        """Lower ``graph`` for ``profile`` and return a compiled artifact.

        Raises
        ------
        CompilationError
            When ``strict`` and the lowered graph is still incompatible with
            the target (unsupported ops or resource overruns).
        """
        lowered = self.pipeline.run(graph)
        chosen_bits = self.select_bits(profile, bits)
        if chosen_bits < 32:
            lowered = annotate_quantization(lowered, bits=chosen_bits)
        if add_preprocessing:
            lowered = insert_preprocessing(
                lowered,
                mean=add_preprocessing.get("mean", 0.0),
                std=add_preprocessing.get("std", 1.0),
            )
        if add_postprocessing:
            lowered = insert_postprocessing(lowered, kind=add_postprocessing)
        report = self.checker.check(lowered, profile, bits=chosen_bits)
        if strict and not report.compatible:
            raise CompilationError(
                f"cannot compile {graph.name!r} for {profile.name!r}: {report.issue_kinds()}",
                report=report,
            )
        cost = graph_cost(lowered, default_bits=chosen_bits)
        exec_cost = self.cost_model.inference_cost(
            profile,
            flops=cost["flops"],
            bytes_moved=cost["bytes_moved"],
            peak_memory=cost["peak_activation_bytes"],
            bits=chosen_bits,
        )
        plan = memory_plan(lowered, default_bits=chosen_bits)
        lowered.metadata["target"] = profile.name
        lowered.metadata["bits"] = chosen_bits
        return CompiledArtifact(
            graph=lowered,
            target=profile.name,
            bits=chosen_bits,
            size_bytes=int(cost["size_bytes"]),
            estimated_cost=exec_cost,
            report=report,
            memory_plan=plan,
        )

    def compile_for_fleet(
        self,
        graph: GraphIR,
        profiles: Sequence[DeviceProfile],
        bits: Optional[int] = None,
    ) -> Tuple[Dict[str, CompiledArtifact], Dict[str, CompatibilityReport]]:
        """Compile a graph for every distinct profile in a fleet.

        Returns ``(artifacts, failures)`` keyed by profile name.
        """
        artifacts: Dict[str, CompiledArtifact] = {}
        failures: Dict[str, CompatibilityReport] = {}
        seen = set()
        for profile in profiles:
            if profile.name in seen:
                continue
            seen.add(profile.name)
            try:
                artifacts[profile.name] = self.compile(graph, profile, bits=bits)
            except CompilationError as exc:
                if exc.report is not None:
                    failures[profile.name] = exc.report
        return artifacts, failures
