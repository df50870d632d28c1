"""Outside-in span tracer: timing wrappers installed from the benchmark's side.

``src/`` carries no timers, so the per-layer numbers come from wrappers this
module patches onto the platform's entry points — each name patched *where
it is looked up* (a class attribute, or the importing module's global) and
restored afterwards.  A span is ``(name, start, end, parent, unit, value)``;
the spans of one window / round / story / sync share a unit.  A span's
*self time* is its duration minus the part its direct children cover, so the
self times of a unit's spans sum to the unit's root span exactly.

Spans stay in memory; :meth:`Tracer.write` dumps the per-unit table (and the
raw spans of the first units) at exit.  Pool workers of the sharded backend
inherit the wrappers through ``fork`` but their spans die with them: only
parent-side spans are reported.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import types
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Target", "TARGETS", "Tracer", "UnitTable"]


class Target(NamedTuple):
    """One patched name: ``module`` + dotted ``path`` to the attribute.

    ``measure(args, kwargs, result)`` optionally attaches a number to each
    span (bytes written, rows executed, entries verified); the per-unit sum
    is reported next to the span's time.
    """

    module: str
    path: str
    span: str
    measure: Optional[Callable] = None

    def resolve(self) -> Tuple[object, str]:
        """The object holding the name (a module or a class) and the attribute."""
        owner = importlib.import_module(self.module)
        *parents, attr = self.path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr


def _rows(args, kwargs, result) -> int:
    return sum(int(w.shape[0]) for w in args[1])


def _payload_bytes(args, kwargs, result) -> int:
    return len(args[1])


def _entries(args, kwargs, result) -> int:
    return len(args[1]["entries"])


# Span names are the repo's module names plus the entry point; a per-layer
# metric is ``<span>_ms`` / ``<span>_share`` / ``<span>_calls``.
TARGETS: Tuple[Target, ...] = (
    # serving plane
    Target("repro.core.serving", "ServingEngine.serve_fleet", "core.serving.window"),
    Target("repro.billing.metering", "UsageLedger.record_batch", "billing.metering.record_batch"),
    Target("repro.billing.metering", "UsageLedger.append_segment", "billing.metering.append_segment"),
    Target("repro.billing.metering", "UsageLedger.export", "billing.metering.export"),
    Target("repro.billing.backend", "BillingBackend.reconcile", "billing.backend.reconcile", _entries),
    Target("repro.devices.state", "FleetState.draw_batch_rows", "devices.state.draw_batch_rows"),
    Target("repro.devices.state", "FleetState.extract_rows", "devices.state.extract_rows"),
    Target("repro.devices.state", "FleetState.merge_rows", "devices.state.merge_rows"),
    Target("repro.exchange.compiled", "CompiledExecutor.run_many", "exchange.compiled.run_many", _rows),
    Target("repro.observability.monitor", "FleetMonitor.observe_fleet", "observability.monitor.observe_fleet"),
    Target("repro.observability.monitor", "EdgeMonitor.__init__", "observability.monitor.init"),
    Target("repro.observability.monitor", "ks_statistic_columns", "observability.drift.ks_columns"),
    Target("repro.observability.telemetry", "TelemetryRecorder.record_batch", "observability.telemetry.record_batch"),
    Target("repro.observability.sketches", "P2Quantile.update", "observability.sketches.p2_update"),
    Target("repro.runtime.sharded", "ShardedFleetRunner.serve_window", "runtime.sharded.serve_window"),
    Target("repro.runtime.sharded", "ShardedFleetRunner._run_shards", "runtime.sharded.run_shards"),
    # federated plane
    Target("repro.federated.engine", "FederatedEngine.run_round", "federated.engine.round"),
    Target("repro.federated.engine", "train_clients_batched", "federated.engine.train_clients_batched"),
    Target("repro.federated.engine", "partition_cohorts", "federated.engine.partition_cohorts"),
    Target("repro.federated.compression", "TopKSparsifier.roundtrip_batch", "federated.compression.roundtrip_batch"),
    Target("repro.federated.aggregation", "FedAvgAggregator.aggregate_stack", "federated.aggregation.aggregate"),
    Target("repro.federated.scheduling", "RandomScheduler.select", "federated.scheduling.select"),
    Target("repro.federated.scheduling", "EligibilityScheduler.select", "federated.scheduling.select"),
    # durability plane
    Target("repro.faults.durable", "DurableCheckpointStore.__init__", "faults.durable.open"),
    Target("repro.faults.durable", "DurableCheckpointStore.put", "faults.durable.put"),
    Target("repro.faults.durable", "DurableCheckpointStore.record_commit", "faults.durable.record_commit"),
    Target("repro.faults.durable", "DurableCheckpointStore.latest_commit", "faults.durable.latest_commit"),
    Target("repro.faults.durable", "DurableCheckpointStore.latest_for", "faults.durable.latest_for"),
    Target("repro.faults.durable", "DurableCheckpointStore.load_plan", "faults.durable.load_plan"),
    # atomic_write_json reaches atomic_write_bytes through persist's own
    # global, payload writes through durable's imported name: patch both.
    Target("repro.faults.durable", "atomic_write_bytes", "persist.atomic_write", _payload_bytes),
    Target("repro.persist", "atomic_write_bytes", "persist.atomic_write", _payload_bytes),
    Target("os", "fsync", "persist.fsync"),
    # platform facade (the story)
    Target("repro.core.platform", "TinyMLOpsPlatform.release", "core.platform.release"),
    Target("repro.core.platform", "TinyMLOpsPlatform.deploy", "core.platform.deploy"),
    Target("repro.core.platform", "TinyMLOpsPlatform.promote_model", "core.platform.promote"),
    Target("repro.core.platform", "TinyMLOpsPlatform.federated_update", "core.platform.federated_update"),
    Target("repro.core.platform", "TinyMLOpsPlatform.sync_device", "core.platform.sync"),
    Target("repro.core.platform", "TinyMLOpsPlatform.verify_inference", "verification.verify"),
    Target("repro.core.platform", "from_sequential", "exchange.graph.from_sequential"),
    Target("repro.core.serving", "ServingEngine.compile_model", "core.serving.compile_model"),
    Target("repro.core.selection", "ModelSelector.select", "core.selection.select"),
    Target("repro.exchange.compiler", "Compiler.compile", "exchange.compiler.compile"),
    Target("repro.runtime.orchestrator", "Orchestrator.place", "runtime.orchestrator.place"),
    Target("repro.optimize.pareto", "VariantGenerator.generate", "optimize.variants"),
    Target("repro.registry.triggers", "TriggerManager.register_and_trigger", "registry.ops"),
    Target("repro.registry.triggers", "TriggerManager.on_base_registered", "registry.ops"),
    Target("repro.registry.versioning", "ModelRegistry.register", "registry.ops"),
    Target("repro.registry.versioning", "ModelRegistry.record_deployment", "registry.ops"),
    Target("repro.registry.versioning", "ModelRegistry.flip_deployments", "registry.ops"),
    Target("repro.registry.versioning", "ModelRegistry.promote", "registry.ops"),
    Target("repro.lifecycle.pipeline", "LifecyclePipeline.step", "lifecycle.pipeline.cycle"),
)

# ``copy.deepcopy`` recurses through the copy module's own global, so
# patching it there would wrap every nested call.  The sharded runner (and
# the lifecycle canary) look it up as ``copy.deepcopy`` on their own ``copy``
# global: that global is swapped for a one-function stand-in instead.
_DEEPCOPY_USERS = (
    ("repro.runtime.sharded", "runtime.sharded.deepcopy"),
    ("repro.lifecycle.pipeline", "lifecycle.pipeline.deepcopy"),
)


class UnitTable:
    """The traced units of one kind: one row per unit, one column per span name."""

    def __init__(self) -> None:
        self.root_ms: List[float] = []
        # span name -> one number per unit, aligned with root_ms
        self.self_ms: Dict[str, List[float]] = {}
        self.calls: Dict[str, List[int]] = {}
        self.values: Dict[str, List[float]] = {}

    def add_unit(self, root_ms: float, by_name: Dict[str, list]) -> None:
        """Append one unit: ``by_name`` maps span name to [self ms, calls, value]."""
        for name in by_name:
            if name not in self.self_ms:
                for table in (self.self_ms, self.calls, self.values):
                    table[name] = [0] * len(self.root_ms)
        self.root_ms.append(root_ms)
        for name in self.self_ms:
            self_ms, calls, value = by_name.get(name, (0.0, 0, 0))
            self.self_ms[name].append(self_ms)
            self.calls[name].append(calls)
            self.values[name].append(value)


class Tracer:
    """Records spans around the patched entry points while a unit is open."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # [name_id, start, end, parent, unit, value]
        self.spans: List[list] = []
        self.units: List[Tuple[str, int]] = []  # (kind, root span index)
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, bool, object]] = []

    # -- wrappers ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:  # no unit open: not part of any measurement
                return fn(*args, **kwargs)
            span = [nid, clock(), 0.0, stack[-1], spans[stack[0]][4], 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner)[attr] if own else None))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every target; :meth:`remove` undoes exactly this."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                owner, attr = target.resolve()
                original = getattr(owner, attr)
                if not isinstance(original, (types.FunctionType, types.BuiltinFunctionType)):
                    raise TypeError(f"{target.module}.{target.path} is not a plain function")
                self._patch(owner, attr, self._wrap(target.span, original, target.measure))
            import copy

            for module_name, span in _DEEPCOPY_USERS:
                module = importlib.import_module(module_name)
                stand_in = types.SimpleNamespace(deepcopy=self._wrap(span, copy.deepcopy, None))
                self._patch(module, "copy", stand_in)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- units and manual spans ---------------------------------------------
    def begin(self, kind: str) -> None:
        """Open the root span of a new unit (one window / round / story / sync)."""
        if self._stack:
            raise RuntimeError("a unit is already open")
        unit = len(self.units)
        self.units.append((kind, len(self.spans)))
        self._stack.append(len(self.spans))
        self.spans.append([self._name_id("unit." + kind), time.perf_counter(), 0.0, -1, unit, 0])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        if self._stack:
            raise RuntimeError("unit closed with spans still open")

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span the benchmark names itself."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    # -- aggregation ---------------------------------------------------------
    def tables(self) -> Dict[str, UnitTable]:
        """Per unit kind: root time and per-span self time / calls / values."""
        child_ms = [0.0] * len(self.spans)
        for name_id, start, end, parent, unit, value in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        roots = [0.0] * len(self.units)
        by_name: List[Dict[str, list]] = [{} for _ in self.units]
        for index, (name_id, start, end, parent, unit, value) in enumerate(self.spans):
            duration = (end - start) * 1e3
            if parent < 0:
                roots[unit] = duration
            row = by_name[unit].setdefault(self.names[name_id], [0.0, 0, 0])
            row[0] += duration - child_ms[index]
            row[1] += 1
            row[2] += value
        tables: Dict[str, UnitTable] = {}
        for unit, (kind, _) in enumerate(self.units):
            tables.setdefault(kind, UnitTable()).add_unit(roots[unit], by_name[unit])
        return tables

    def total_under(self, name: str, ancestor: str) -> List[float]:
        """Per unit: summed duration (ms) of ``name`` spans below an ``ancestor`` span."""
        name_id, ancestor_id = self._ids.get(name), self._ids.get(ancestor)
        totals = [0.0] * len(self.units)
        if name_id is None or ancestor_id is None:
            return totals
        for span in self.spans:
            if span[0] != name_id:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor_id:
                parent = self.spans[parent][3]
            if parent >= 0:
                totals[span[4]] += (span[2] - span[1]) * 1e3
        return totals

    def write(self, path: str, header: Dict[str, object], raw_units: int = 2) -> None:
        """Dump the unit tables plus the raw spans of the first units of each kind."""
        tables = self.tables()
        keep, seen = set(), {}
        for unit, (kind, _) in enumerate(self.units):
            seen[kind] = seen.get(kind, 0) + 1
            if seen[kind] <= raw_units:
                keep.add(unit)
        body = dict(header)
        body["span_fields"] = ["id", "name", "start_s", "end_s", "parent_id", "unit", "value"]
        body["spans"] = [
            [i, self.names[s[0]], s[1], s[2], s[3], s[4], s[5]]
            for i, s in enumerate(self.spans) if s[4] in keep
        ]
        body["units"] = {
            kind: {"root_ms": t.root_ms, "self_ms": t.self_ms, "calls": t.calls, "values": t.values}
            for kind, t in tables.items()
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(body, handle)
