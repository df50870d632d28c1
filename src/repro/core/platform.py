"""The TinyMLOps platform facade: Figure 1 of the paper as one object.

:class:`TinyMLOpsPlatform` wires together every subsystem (registry,
optimization, compilation, fleet management, observability, billing,
federated learning, IP protection, verifiable execution) and exposes the
end-to-end workflows a platform user would call:

* :meth:`release`   — register a trained model and stamp out optimized
  variants (Section III-A: version management + optimization pipeline).
* :meth:`deploy`    — select a variant per device context and compile it for
  the device profile — once per distinct class of device, not once per
  device — then, per device, install it, record the deployment, attach a
  monitor and sell the prepaid package (Sections III-A, IV).
* :meth:`serve`     — simulate production traffic on a device: metering
  (III-C), telemetry + drift monitoring (III-B), battery accounting.
* :meth:`sync_device` — upload telemetry and the usage ledger when the
  device has connectivity; reconcile billing.
* :meth:`federated_update` — run federated rounds over eligible devices
  (III-D).
* :meth:`protect`   — watermark + encrypt artifacts for a device (V).
* :meth:`verify_inference` — produce and check an execution transcript (VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.billing import BillingBackend, PricingPlan, UsageLedger
from repro.devices import CostModel, DeviceProfile, EdgeDevice, Fleet, NetworkCondition, get_profile
from repro.exchange import CompilationError, Compiler, from_sequential
from repro.federated import (
    EligibilityScheduler,
    FederatedClient,
    FederatedEngine,
    RoundScenario,
    get_compressor,
)
from repro.nn.model import Sequential
from repro.observability import AlertEngine, EdgeMonitor, TelemetryAggregator
from repro.optimize import ModelVariant, VariantGenerator, pareto_front
from repro.protection import ModelKeyManager, ProtectedModel, StaticWatermarker
from repro.registry import ModelRegistry, OptimizationPipeline, TriggerManager
from repro.runtime import Orchestrator, Pipeline, model_module, softmax_module
from repro.verification import TranscriptVerifier, VerifiableExecutor

from .selection import ModelSelector, SelectionPolicy
from .serving import FleetServeReport, ServingEngine

__all__ = ["PlatformConfig", "TinyMLOpsPlatform"]


@dataclass
class PlatformConfig:
    """Tunable knobs of the platform facade."""

    bit_widths: Tuple[int, ...] = (8, 4)
    sparsities: Tuple[float, ...] = (0.5,)
    price_per_query: float = 0.0015
    watermark_bits: int = 32
    telemetry_detectors: Tuple[str, ...] = ("ks",)
    federated_compressor: str = "topk"
    federated_fraction: float = 0.3
    seed: int = 0


class TinyMLOpsPlatform:
    """End-to-end TinyMLOps control plane over a simulated fleet."""

    def __init__(self, fleet: Fleet, config: Optional[PlatformConfig] = None) -> None:
        self.fleet = fleet
        self.config = config or PlatformConfig()
        # Subsystems (the blocks of Figure 1).
        self.registry = ModelRegistry()
        self.triggers = TriggerManager(self.registry)
        self.compiler = Compiler()
        self.cost_model = CostModel()
        self.selector = ModelSelector(self.cost_model)
        self.orchestrator = Orchestrator(fleet)
        self.telemetry = TelemetryAggregator()
        self.alerts = AlertEngine.default_rules()
        self.billing = BillingBackend()
        self.keys = ModelKeyManager()
        self.watermarker = StaticWatermarker(message_bits=self.config.watermark_bits, seed=self.config.seed)
        # Per-device state the platform tracks.
        self.monitors: Dict[str, EdgeMonitor] = {}
        self.ledgers: Dict[str, UsageLedger] = {}
        self.deployed_models: Dict[str, Sequential] = {}
        self.variants: Dict[str, List[ModelVariant]] = {}
        self.events: List[Dict[str, object]] = []
        # Batched serving engine sharing the per-device state by reference.
        self.serving = ServingEngine(
            fleet,
            cost_model=self.cost_model,
            models=self.deployed_models,
            ledgers=self.ledgers,
            monitors=self.monitors,
        )

    # ------------------------------------------------------------------
    def _log(self, kind: str, **details: object) -> None:
        self.events.append({"event": kind, **details})

    # ------------------------------------------------------------------
    # release: registry + optimization pipeline (Sec. III-A)
    # ------------------------------------------------------------------
    def release(
        self,
        model: Sequential,
        x_eval: np.ndarray,
        y_eval: np.ndarray,
        watermark_owner: Optional[str] = None,
    ) -> Dict[str, object]:
        """Register a trained model, generate and evaluate optimized variants."""
        if watermark_owner:
            model, wm_key = self.watermarker.embed(model, owner=watermark_owner)
            model.name = model.name.replace("-wm", "")
            self._log("watermarked", model=model.name, owner=watermark_owner)
        pipeline = OptimizationPipeline.standard(
            bit_widths=self.config.bit_widths, sparsities=self.config.sparsities
        )
        self.triggers.subscribe(model.name, pipeline)
        base_version, derived = self.triggers.register_and_trigger(model)
        profiles = sorted({d.profile for d in self.fleet}, key=lambda p: p.name)
        generator = VariantGenerator(self.cost_model)
        variants = generator.generate(
            model,
            x_eval,
            y_eval,
            profiles,
            bit_widths=self.config.bit_widths,
            sparsities=self.config.sparsities,
        )
        self.variants[model.name] = variants
        self.deployed_models[model.name] = model
        self.billing.register_plan(PricingPlan(model.name, price_per_query=self.config.price_per_query))
        self._log("released", model=model.name, base_version=base_version.version_id, n_variants=len(variants))
        return {
            "base_version": base_version.version_id,
            "derived_versions": [v.version_id for v in derived],
            "variants": [v.record() for v in variants],
            "pareto_front": [v.name for v in pareto_front(variants)],
        }

    # ------------------------------------------------------------------
    # deploy: per-class selection + compilation, per-device installation
    # (Sec. III-A, IV)
    # ------------------------------------------------------------------
    def _select_by_class(self, variants: Sequence[ModelVariant]) -> Callable[[EdgeDevice], Optional[ModelVariant]]:
        """``device -> chosen variant``, running ``select`` once per device class.

        The class is everything :meth:`ModelSelector.select` reads besides
        ``variants`` (its purity contract): profile, policy and the *whole*
        :class:`NetworkCondition` — ``transfer_time`` reads bandwidth and
        latency, not ``kind``.  The memo dies with the caller's call.
        """
        chosen_for: Dict[Tuple[DeviceProfile, NetworkCondition, SelectionPolicy], Optional[ModelVariant]] = {}

        def select(device: EdgeDevice) -> Optional[ModelVariant]:
            network = device.network
            policy = self.selector.policy_for_context(device.context())
            key = (device.profile, network, policy)
            if key not in chosen_for:
                chosen_for[key] = self.selector.select(variants, device.profile, network=network, policy=policy).chosen
            return chosen_for[key]

        return select

    def deploy(
        self,
        model_name: str,
        reference_x: Optional[np.ndarray] = None,
        reference_predictions: Optional[np.ndarray] = None,
        num_classes: int = 0,
        prepaid_queries: int = 1000,
        device_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, object]:
        """Roll the released model out to ``device_ids`` (default: the fleet).

        Devices are visited one by one in the given order (an empty selection
        deploys to nobody), but what is a pure function of a device's *class*
        is built once per class and shared by reference: the variant is
        selected once per distinct ``(profile, network, policy)``
        (:meth:`_select_by_class`) and lowered, compiled and wrapped in its
        pipeline once per distinct ``(chosen variant, profile)`` — 36 and
        ≤ 12 on a 400-device random fleet.  A class with no feasible variant,
        or whose compile raises :class:`~repro.exchange.CompilationError`,
        fails every one of its devices; any other exception propagates.

        Per-device state and order-dependent side effects stay per device:
        placement (free flash differs), the registry record, the monitor,
        enrolment and the grant (ids number grants in call order), the order
        of ``failures``.  Nothing is cached across calls: weights
        (``federated_update``), the variant set (``promote_model``), links
        and batteries all move between them.
        """
        if model_name not in self.variants:
            raise KeyError(f"model {model_name!r} has not been released")
        variants = self.variants[model_name]
        # Deploy the production-staged version when the lifecycle has promoted
        # one; otherwise (no lifecycle in play) the newest base.
        version = self.registry.production(model_name) or self.registry.latest(model_name, kind="base")
        targets = [self.fleet.get(d) for d in device_ids] if device_ids is not None else list(self.fleet)
        per_variant: Dict[str, int] = {}
        failures: List[str] = []
        select = self._select_by_class(variants)
        # (id(chosen variant), profile) -> the shared pipeline, or None when the
        # pair does not compile; ``variants`` outlives the loop, so ids are stable.
        pipelines: Dict[Tuple[int, DeviceProfile], Optional[Pipeline]] = {}
        backend_key = self.billing.signing_key()
        for device in targets:
            chosen = select(device)
            if chosen is None:
                failures.append(device.device_id)
                continue
            target = (id(chosen), device.profile)
            if target not in pipelines:
                graph = from_sequential(chosen.model)
                try:
                    # A feasibility gate: the artifact itself is not kept.
                    self.compiler.compile(graph, device.profile, bits=chosen.bits)
                except CompilationError:
                    pipelines[target] = None
                else:
                    pipelines[target] = Pipeline([model_module(chosen.model, bits=chosen.bits), softmax_module()], name=model_name, version=chosen.name)
            pipeline = pipelines[target]
            if pipeline is None or not self.orchestrator.place(pipeline, [device.device_id])[0].placed:
                failures.append(device.device_id)
                continue
            per_variant[chosen.name] = per_variant.get(chosen.name, 0) + 1
            self.registry.record_deployment(device.device_id, version.version_id)
            # Observability: per-device monitor seeded with reference data.
            if reference_x is not None:
                self.monitors[device.device_id] = EdgeMonitor(
                    device.device_id,
                    reference_x,
                    reference_predictions=reference_predictions,
                    num_classes=num_classes,
                    detectors=self.config.telemetry_detectors,
                    model_version=chosen.name,
                )
            # Billing: enroll and sell the initial prepaid package.
            key = self.billing.enroll_device(device.device_id)
            ledger = UsageLedger(device.device_id, key)
            ledger.add_grant(
                self.billing.sell_package(device.device_id, model_name, prepaid_queries),
                backend_key=backend_key,
            )
            self.ledgers[device.device_id] = ledger
        if per_variant:
            # Server-side compiled plan for the fleet-scale serving path:
            # platform.serve / serve_fleet execute this plan instead of the
            # layer-by-layer nn forward.
            self.serving.compile_model(model_name)
        summary = {
            "deployed": sum(per_variant.values()),
            "failed": len(failures),
            "per_variant": per_variant,
            "failures": failures,
        }
        self._log("deployed", model=model_name, **{k: v for k, v in summary.items() if k != "failures"})
        return summary

    # ------------------------------------------------------------------
    # serve: metered, monitored inference on one device (Sec. III-B, III-C)
    # ------------------------------------------------------------------
    def serve(self, device_id: str, model_name: str, x: np.ndarray) -> Dict[str, object]:
        """Simulate a window of production queries on a device.

        Delegates to the batched :class:`~repro.core.serving.ServingEngine`:
        quota and battery are accounted for the whole window in O(#grants)
        and O(1) respectively, and the drift monitor observes exactly the
        served slice of the window (queries denied by quota or battery never
        ran, so they produce no telemetry).
        """
        return self.serving.serve_batch(device_id, model_name, x).as_dict()

    def serve_fleet(
        self,
        model_name: str,
        traffic,
        engine: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> FleetServeReport:
        """Drive the whole fleet through one or more traffic windows.

        ``traffic`` is a ``{device_id: inputs}`` mapping or an iterable of
        such windows (see :mod:`repro.core.traffic` for scenario
        generators).  Each window is served as one fleet sweep: per-device
        quota/battery admission, then a single compiled-plan prediction
        sweep and a single :class:`~repro.observability.FleetMonitor` drift
        sweep over every monitored device's served slice.  ``engine`` /
        ``workers`` pass through to
        :meth:`~repro.core.serving.ServingEngine.serve_fleet` — notably
        ``engine="sharded"`` partitions each window across a process pool
        (:mod:`repro.runtime.sharded`) with a byte-identical merged result.
        """
        return self.serving.serve_fleet(model_name, traffic, engine=engine, workers=workers)

    # ------------------------------------------------------------------
    # sync: telemetry upload + billing reconciliation (Sec. III-B, III-C)
    # ------------------------------------------------------------------
    def sync_device(self, device_id: str) -> Dict[str, object]:
        """Upload telemetry and the usage ledger when the device is online."""
        device = self.fleet.get(device_id)
        if not device.network.online:
            return {"synced": False, "reason": "offline"}
        result: Dict[str, object] = {"synced": True}
        monitor = self.monitors.get(device_id)
        if monitor is not None:
            self.telemetry.ingest(monitor.build_report())
            result["telemetry_bytes"] = monitor.telemetry.estimated_payload_bytes()
        ledger = self.ledgers.get(device_id)
        if ledger is not None:
            reconciliation = self.billing.reconcile(ledger.export())
            result["billing_accepted"] = reconciliation.accepted
            result["billed_amount"] = reconciliation.billed_amount
        return result

    def fleet_health(self) -> Dict[str, object]:
        """Aggregate health metrics + alerts across synced telemetry."""
        summary = self.telemetry.fleet_summary()
        drifted = sum(1 for m in self.monitors.values() if m.any_drift())
        metrics = dict(summary)
        metrics["drift_fraction"] = drifted / max(len(self.monitors), 1)
        alerts = self.alerts.evaluate(metrics)
        return {"metrics": metrics, "alerts": [a.rule for a in alerts]}

    # ------------------------------------------------------------------
    # federated retraining (Sec. III-D)
    # ------------------------------------------------------------------
    def build_federated_engine(
        self,
        model: Sequential,
        client_data: Sequence,
        local_epochs: int = 1,
        lr: float = 0.05,
        eval_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        scenario: Optional[RoundScenario] = None,
        train_in_place: bool = True,
        fault_injector=None,
        quorum: Optional[float] = None,
        quorum_mode: str = "delivered",
        retry_policy=None,
        checkpoints=None,
    ) -> FederatedEngine:
        """A federated engine configured with the platform's policies.

        Shared by :meth:`federated_update` (which trains the deployed model
        in place) and the lifecycle loop, which passes
        ``train_in_place=False`` to train a weight-copy *clone*
        (:meth:`FederatedEngine.for_candidate`) so a candidate that fails
        its canary gate never touched the serving incumbent.

        ``fault_injector`` / ``quorum`` / ``quorum_mode`` /
        ``retry_policy`` / ``checkpoints`` pass straight through to
        :class:`~repro.federated.engine.FederatedEngine` — the
        :mod:`repro.faults` plane — so platform-driven retraining (and the
        lifecycle loop) can run under a seeded fault plan with
        transactional round commits.
        """
        clients = [
            FederatedClient(cd, local_epochs=local_epochs, lr=lr, seed=self.config.seed + i)
            for i, cd in enumerate(client_data)
        ]
        on_fleet = any(c.client_id in self.fleet.devices for c in clients)
        scheduler = EligibilityScheduler(max_clients=max(2, int(self.config.federated_fraction * len(clients))))
        kwargs = dict(
            compressor=get_compressor(self.config.federated_compressor, fraction=0.1)
            if self.config.federated_compressor == "topk"
            else get_compressor(self.config.federated_compressor),
            scheduler=scheduler if on_fleet else None,
            eval_data=eval_data,
            fleet=self.fleet if on_fleet else None,
            scenario=scenario,
            fault_injector=fault_injector,
            quorum=quorum,
            quorum_mode=quorum_mode,
            retry_policy=retry_policy,
            checkpoints=checkpoints,
        )
        if train_in_place:
            return FederatedEngine(model, clients, **kwargs)
        return FederatedEngine.for_candidate(model, clients, **kwargs)

    def federated_update(
        self,
        model_name: str,
        client_data: Sequence,
        rounds: int = 3,
        eval_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        local_epochs: int = 1,
        lr: float = 0.05,
        scenario: Optional[RoundScenario] = None,
    ) -> Dict[str, object]:
        """Run federated rounds over eligible devices and re-register the model.

        Rounds execute on the vectorized :class:`FederatedEngine`: client
        selection reads the fleet's *live* device state each round (so a
        device that drained its battery serving traffic drops out of later
        rounds), every selected client trains in one stacked pass, and an
        optional ``scenario`` injects dropouts / stragglers / byzantine
        updates.
        """
        model = self.deployed_models[model_name]
        engine = self.build_federated_engine(
            model,
            client_data,
            local_epochs=local_epochs,
            lr=lr,
            eval_data=eval_data,
            scenario=scenario,
        )
        history = engine.run(rounds)
        if model_name in self.serving.plans:
            # The rounds mutated the model's weights in place; the compiled
            # serving plan folded the old weights at compile time and must
            # be rebuilt or serving would keep predicting with stale ones.
            self.serving.compile_model(model_name)
        new_version = self.registry.register_model(model, kind="federated", parents=(self.registry.latest(model_name, kind="base").version_id,), tags={"rounds": rounds})
        self._log("federated_update", model=model_name, rounds=rounds, final_accuracy=history[-1].global_accuracy if history else 0.0)
        return {
            "rounds": [r.as_dict() for r in history],
            "communication": engine.total_communication(),
            "new_version": new_version.version_id,
        }

    # ------------------------------------------------------------------
    # lifecycle: promotion + the closed loop (Sec. III-A/III-B/III-D)
    # ------------------------------------------------------------------
    def promote_model(
        self,
        model_name: str,
        model: Sequential,
        version_id: str,
        x_eval: Optional[np.ndarray] = None,
        y_eval: Optional[np.ndarray] = None,
    ) -> Dict[str, object]:
        """Adopt a gate-approved candidate as the serving model for a family.

        Called by :class:`repro.lifecycle.LifecyclePipeline` after a canary
        passes its gates.  In one step: the serving model is swapped and its
        compiled plan rebuilt, the evaluated variant set is regenerated from
        the new weights, every deployed device re-selects its variant
        against the fresh set, the registry deployment map flips to the new
        version (:meth:`ModelRegistry.flip_deployments` returns the audit
        trail), and the version is staged ``production`` (retiring its
        predecessor).

        Re-selection visits every deployed device but runs ``select`` once
        per device class (:meth:`_select_by_class`, as :meth:`deploy` does),
        memoised for this call only: the variant set was just replaced.
        """
        self.deployed_models[model_name] = model
        if model_name in self.serving.plans:
            self.serving.compile_model(model_name)
        per_variant: Dict[str, int] = {}
        if x_eval is not None and y_eval is not None:
            profiles = sorted({d.profile for d in self.fleet}, key=lambda p: p.name)
            generator = VariantGenerator(self.cost_model)
            self.variants[model_name] = generator.generate(
                model,
                x_eval,
                y_eval,
                profiles,
                bit_widths=self.config.bit_widths,
                sparsities=self.config.sparsities,
            )
        deployed_ids = sorted(
            device_id
            for device_id in self.registry.deployments
            if device_id in self.fleet.devices
            and self.registry.deployed_version(device_id, model_name) is not None
        )
        select = self._select_by_class(self.variants.get(model_name, []))
        for device_id in deployed_ids:
            chosen = select(self.fleet.get(device_id))
            if chosen is not None:
                per_variant[chosen.name] = per_variant.get(chosen.name, 0) + 1
        previous = self.registry.flip_deployments(deployed_ids, version_id)
        self.registry.promote(version_id)
        self._log(
            "promoted",
            model=model_name,
            version=version_id,
            n_devices=len(deployed_ids),
            per_variant=per_variant,
        )
        return {
            "version": version_id,
            "flipped_devices": deployed_ids,
            "previous_versions": previous,
            "per_variant": per_variant,
        }

    def lifecycle(
        self,
        model_name: str,
        client_data: Sequence,
        eval_data: Tuple[np.ndarray, np.ndarray],
        config=None,
        gates=None,
        metric_probes=None,
        fault_injector=None,
        quorum: Optional[float] = None,
        quorum_mode: str = "delivered",
        retry_policy=None,
        checkpoints=None,
        state_dir: Optional[str] = None,
    ):
        """A :class:`repro.lifecycle.LifecyclePipeline` bound to this platform.

        The closed loop of Section III-A: drift events (or a schedule)
        trigger federated retraining, the candidate canaries on a cloned
        fleet slice, and the gate promotes or rolls back.  Imported lazily
        to keep :mod:`repro.core` free of a hard lifecycle dependency.
        ``fault_injector`` / ``quorum`` / ``quorum_mode`` /
        ``retry_policy`` / ``checkpoints`` flow into the retraining engine
        (:mod:`repro.faults`); ``state_dir`` makes the pipeline *durable*
        — decisions and promotion audits persist to disk and a pipeline
        rebuilt over the same directory resumes its cycle counter and
        history (:class:`repro.faults.durable.DurableDecisionLog`).
        """
        from repro.lifecycle import LifecyclePipeline

        return LifecyclePipeline(
            self,
            model_name,
            client_data,
            eval_data,
            config=config,
            gates=gates,
            metric_probes=metric_probes,
            fault_injector=fault_injector,
            quorum=quorum,
            quorum_mode=quorum_mode,
            retry_policy=retry_policy,
            checkpoints=checkpoints,
            state_dir=state_dir,
        )

    # ------------------------------------------------------------------
    # protection / verification (Sec. V, VI)
    # ------------------------------------------------------------------
    def protect(self, model_name: str, device_id: str, poisoning: str = "round") -> Dict[str, object]:
        """Encrypt the artifact for one device and wrap serving with poisoning."""
        model = self.deployed_models[model_name]
        blob = self.keys.wrap_model(model.to_bytes(), model_name, device_id)
        protected = ProtectedModel(model, poisoning=poisoning)
        self._log("protected", model=model_name, device=device_id, poisoning=poisoning)
        return {"encrypted_bytes": blob.size_bytes, "protected_model": protected}

    def verify_inference(self, model_name: str, x: np.ndarray) -> Dict[str, object]:
        """Produce and verify an execution transcript for a batch."""
        model = self.deployed_models[model_name]
        executor = VerifiableExecutor(model, seed=self.config.seed)
        transcript = executor.execute(x)
        verifier = TranscriptVerifier(model, expected_root=executor.weight_root, seed=self.config.seed)
        report = verifier.verify(transcript)
        self._log("verified_inference", model=model_name, valid=report["valid"])
        return report

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Snapshot of the whole platform state (dashboards / E1)."""
        return {
            "fleet": self.fleet.summary(),
            "registry": self.registry.stats(),
            "billing": self.billing.usage_report(),
            "telemetry": self.telemetry.fleet_summary(),
            "events": len(self.events),
        }
