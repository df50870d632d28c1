"""Closed-loop model lifecycle: drift → retrain → canary → promote/rollback.

Paper Section III-A demands that "if the base model is updated or retrained,
we also have to automatically trigger the execution of the optimization
pipeline".  The repo has had every organ for a while — the registry
(store/triggers/versioning), drift monitoring, the federated engine, the
one-sweep fleet serving path — but nothing connected them into a loop.
:class:`LifecyclePipeline` is that loop.

Architecture (one cycle)
------------------------

::

    trigger ──► retrain ──► register ──► canary ──► gate ──► promote
      │            │            │           │          │        │
      │            │            │           │          │        └─ rollback
    drift      federated    new base    sandboxed   compare
    events /   rounds on    version +   serve_fleet candidate vs
    schedule   a CLONE      derived     on a fleet  incumbent
               (incumbent   variants    slice       (accuracy /
               untouched)   (Trigger-   (cloned     latency /
                            Manager)    state)      drift / size)

1. **Trigger** — :meth:`LifecyclePipeline.poll` consumes *new* drift events
   from every deployed device's :class:`~repro.observability.EdgeMonitor`
   (cursor-based :meth:`~repro.observability.EdgeMonitor.drift_events_since`,
   each event seen exactly once) and falls back to a fixed-interval
   schedule; :meth:`run_cycle` also accepts explicit/manual triggers.
2. **Retrain** — federated rounds run on a *weight-copy clone* of the
   incumbent (:meth:`~repro.federated.FederatedEngine.for_candidate`), so a
   candidate that later fails its gate never touched the serving model.
3. **Register** — the candidate registers as a new **base** version with the
   incumbent as lineage parent and fires
   :meth:`~repro.registry.TriggerManager.on_base_registered`: every
   subscribed optimization pipeline re-derives its variants from the new
   base, which (post-bugfix) clears
   :meth:`~repro.registry.ModelRegistry.stale_variants` by matching
   (kind, recipe, pipeline) identity.
4. **Canary** — a deterministic, seeded slice of the deployed fleet is
   *cloned* into a sandbox :class:`~repro.core.serving.ServingEngine`: its
   planes (``FleetState.extract_rows``), each ledger's head
   (:meth:`~repro.billing.UsageLedger.fork_head`: grants, usage, clock and
   head MAC, never the chain history) and deep-copied monitors, which
   share their read-only reference blocks with production's.  Candidate and
   incumbent each serve the *same* seeded traffic windows through the
   existing one-sweep ``serve_fleet`` path.  The production fleet's planes,
   MAC-chained ledgers and monitors are byte-for-byte untouched (the tests
   assert this against a no-canary run).
5. **Gate** — ordered :class:`GateCheck`\\ s compare the two
   :class:`CanaryReport`\\ s: architecture compatibility (a wrong-input-shape
   candidate fails to execute), size (oversized vs the incumbent or vs the
   canary devices' flash), accuracy, latency and fresh-drift rate.
6. **Promote / rollback** — on promotion the platform adopts the candidate
   (:meth:`~repro.core.TinyMLOpsPlatform.promote_model`: serving-plan
   rebuild, post-promotion variant regeneration + per-device re-selection,
   registry deployment flips, stage ``production``); on rollback the
   candidate is staged ``rejected`` and nothing else changes.  Either way
   the full decision (trigger, gate metrics, reasons, lineage) is persisted
   as a content-addressed record in the registry store and tagged onto the
   candidate version.

Determinism: every random choice (canary slice, canary traffic, federated
rounds) derives from ``LifecycleConfig.seed`` and the cycle index, so a
seeded drift→retrain→canary→promote run reproduces the same promoted
version id and bit-identical gate metrics.

Adding a gate metric (recipe)
-----------------------------

1. *Measure it.*  Pass ``metric_probes={"my_metric": probe}`` to
   :class:`LifecyclePipeline`; the probe receives the candidate's sandbox
   ``(serving_engine, model, fleet_report)`` after the canary sweep and
   returns a float, which lands in ``CanaryReport.extras["my_metric"]`` for
   both candidate and incumbent.  (Anything derivable from the model or the
   report alone — memory, payload size — can skip this step and read
   existing fields.)
2. *Gate on it.*  Append a check to the defaults::

       def energy_check(candidate, incumbent, config):
           if candidate.extras["my_metric"] > 1.2 * incumbent.extras["my_metric"]:
               return "candidate energy regressed >20%"
           return None

       pipeline = platform.lifecycle(..., gates=default_gates() + [GateCheck("energy", energy_check)])

   A check returns ``None`` to pass or a human-readable reason to fail; any
   failing gate rolls the candidate back and the reasons are recorded in
   the decision.
3. *Tune thresholds* via :class:`LifecycleConfig` (add a field) rather than
   closing over constants, so scenario suites can sweep them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.serving import ServingEngine
from repro.core.traffic import TrafficGenerator
from repro.devices import Fleet
from repro.nn.layers import Dense
from repro.nn.model import Sequential

__all__ = [
    "LifecycleConfig",
    "CanaryReport",
    "GateCheck",
    "default_gates",
    "LifecycleDecision",
    "LifecyclePipeline",
    "oversized_candidate",
    "degraded_candidate",
]


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the closed loop.

    Canary sizing, retraining effort, and the default gate thresholds.
    ``canary_engine`` selects the serving path for the sandbox sweeps
    (``"batched"`` — the one-sweep path — by default; ``"oracle"`` and
    ``"sharded"`` are accepted wherever ``serve_fleet`` accepts them, and
    the benchmarks assert batched≡oracle gate metrics).
    """

    canary_fraction: float = 0.2
    min_canary_devices: int = 2
    canary_windows: int = 2
    canary_rate: float = 24.0
    canary_engine: str = "batched"
    rounds: int = 2
    local_epochs: int = 1
    lr: float = 0.05
    min_accuracy_delta: float = -0.05
    max_latency_ratio: float = 1.5
    max_size_ratio: float = 4.0
    max_drift_increase: float = 0.25
    schedule_every: Optional[int] = None
    seed: int = 0


@dataclass
class CanaryReport:
    """What one sandboxed canary sweep measured for one model.

    ``error`` is set when the model failed to execute at all (evaluation or
    serving raised) — the architecture gate turns it into a rollback.
    ``drift_devices`` counts canary devices whose monitors appended *new*
    drift events during the sweep (pre-existing history is excluded via
    :meth:`~repro.observability.EdgeMonitor.drift_events_since` cursors).
    """

    accuracy: float = 0.0
    latency_s: float = 0.0
    size_bytes: int = 0
    flash_compatible_fraction: float = 0.0
    requested: int = 0
    served: int = 0
    denied_quota: int = 0
    battery_failures: int = 0
    drift_devices: int = 0
    drift_fraction: float = 0.0
    error: Optional[str] = None
    extras: Dict[str, float] = field(default_factory=dict)

    def metrics(self) -> Dict[str, object]:
        """Flat record for decisions / registry tags."""
        out = {
            "accuracy": self.accuracy,
            "latency_s": self.latency_s,
            "size_bytes": self.size_bytes,
            "flash_compatible_fraction": self.flash_compatible_fraction,
            "requested": self.requested,
            "served": self.served,
            "denied_quota": self.denied_quota,
            "battery_failures": self.battery_failures,
            "drift_devices": self.drift_devices,
            "drift_fraction": self.drift_fraction,
            "error": self.error,
        }
        out.update(self.extras)
        return out


@dataclass(frozen=True)
class GateCheck:
    """One named promotion gate.

    ``check(candidate, incumbent, config)`` returns ``None`` to pass or a
    human-readable failure reason; see the module docstring for the
    "adding a gate metric" recipe.
    """

    name: str
    check: Callable[[CanaryReport, CanaryReport, LifecycleConfig], Optional[str]]


def _architecture_check(candidate: CanaryReport, incumbent: CanaryReport, config: LifecycleConfig) -> Optional[str]:
    if candidate.error:
        return f"candidate failed to execute: {candidate.error}"
    return None


def _oversized_check(candidate: CanaryReport, incumbent: CanaryReport, config: LifecycleConfig) -> Optional[str]:
    if incumbent.size_bytes and candidate.size_bytes > config.max_size_ratio * incumbent.size_bytes:
        return (
            f"candidate is {candidate.size_bytes / incumbent.size_bytes:.1f}x the incumbent "
            f"(max {config.max_size_ratio}x)"
        )
    if candidate.flash_compatible_fraction == 0.0:
        return "candidate fits no canary device's flash"
    return None


def _accuracy_check(candidate: CanaryReport, incumbent: CanaryReport, config: LifecycleConfig) -> Optional[str]:
    floor = incumbent.accuracy + config.min_accuracy_delta
    if candidate.accuracy < floor:
        return f"accuracy {candidate.accuracy:.4f} below floor {floor:.4f} (incumbent {incumbent.accuracy:.4f})"
    return None


def _latency_check(candidate: CanaryReport, incumbent: CanaryReport, config: LifecycleConfig) -> Optional[str]:
    ceiling = incumbent.latency_s * config.max_latency_ratio
    if incumbent.latency_s and candidate.latency_s > ceiling:
        return f"mean canary latency {candidate.latency_s:.6f}s above ceiling {ceiling:.6f}s"
    return None


def _drift_check(candidate: CanaryReport, incumbent: CanaryReport, config: LifecycleConfig) -> Optional[str]:
    ceiling = incumbent.drift_fraction + config.max_drift_increase
    if candidate.drift_fraction > ceiling:
        return f"fresh-drift fraction {candidate.drift_fraction:.3f} above ceiling {ceiling:.3f}"
    return None


def default_gates() -> List[GateCheck]:
    """The standard promotion gates, in evaluation order."""
    return [
        GateCheck("architecture", _architecture_check),
        GateCheck("oversized", _oversized_check),
        GateCheck("accuracy", _accuracy_check),
        GateCheck("latency", _latency_check),
        GateCheck("drift", _drift_check),
    ]


@dataclass
class LifecycleDecision:
    """The auditable outcome of one lifecycle cycle."""

    cycle: int
    trigger: Dict[str, object]
    promoted: bool
    candidate_version: str
    incumbent_version: str
    reasons: List[str]
    candidate_metrics: Dict[str, object]
    incumbent_metrics: Dict[str, object]
    derived_versions: List[str]
    canary_devices: List[str]
    training: Dict[str, object] = field(default_factory=dict)
    stale_variants_after: int = 0
    record_digest: str = ""
    promotion: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload = {
            "cycle": self.cycle,
            "trigger": dict(self.trigger),
            "promoted": self.promoted,
            "candidate_version": self.candidate_version,
            "incumbent_version": self.incumbent_version,
            "reasons": list(self.reasons),
            "candidate_metrics": dict(self.candidate_metrics),
            "incumbent_metrics": dict(self.incumbent_metrics),
            "derived_versions": list(self.derived_versions),
            "canary_devices": list(self.canary_devices),
            "training": dict(self.training),
            "stale_variants_after": self.stale_variants_after,
        }
        # Like ``training["degraded"]``: the key appears only when the
        # cycle actually promoted, so rollback records keep their
        # pre-durability shape (and digests).
        if self.promotion:
            payload["promotion"] = dict(self.promotion)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LifecycleDecision":
        """Rebuild a decision from a persisted record (``as_dict`` plus an
        optional ``record_digest`` key added by the durable log)."""
        return cls(
            cycle=int(payload["cycle"]),
            trigger=dict(payload.get("trigger", {})),
            promoted=bool(payload["promoted"]),
            candidate_version=str(payload["candidate_version"]),
            incumbent_version=str(payload["incumbent_version"]),
            reasons=list(payload.get("reasons", [])),
            candidate_metrics=dict(payload.get("candidate_metrics", {})),
            incumbent_metrics=dict(payload.get("incumbent_metrics", {})),
            derived_versions=list(payload.get("derived_versions", [])),
            canary_devices=list(payload.get("canary_devices", [])),
            training=dict(payload.get("training", {})),
            stale_variants_after=int(payload.get("stale_variants_after", 0)),
            record_digest=str(payload.get("record_digest", "")),
            promotion=dict(payload.get("promotion", {})),
        )


# ---------------------------------------------------------------------------
# scenario-injected bad candidates (mlops-chi style)
# ---------------------------------------------------------------------------

def _dense_dims(model: Sequential) -> Tuple[int, int]:
    dense = [layer for layer in model.layers if isinstance(layer, Dense)]
    if not dense:
        raise ValueError("model has no Dense layers to derive dimensions from")
    return int(dense[0].params["W"].shape[0]), int(dense[-1].params["W"].shape[1])


def oversized_candidate(incumbent: Sequential, hidden_width: int = 4096, seed: int = 0) -> Sequential:
    """A candidate far too large for the fleet (size gate must reject it)."""
    from repro.nn.zoo import make_mlp

    in_dim, out_dim = _dense_dims(incumbent)
    return make_mlp(in_dim, out_dim, hidden=(hidden_width,), seed=seed, name=incumbent.name)


def degraded_candidate(incumbent: Sequential, seed: int = 0) -> Sequential:
    """Same architecture, freshly re-initialized weights (accuracy gate)."""
    clone = incumbent.clone(copy_weights=False)
    clone.name = incumbent.name
    return clone


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

class LifecyclePipeline:
    """Drift → retrain → canary → promote/rollback over a platform world.

    Parameters
    ----------
    platform:
        The :class:`~repro.core.TinyMLOpsPlatform` whose fleet, registry,
        monitors and serving state the loop manages.
    model_name:
        The released + deployed model family to operate on.
    client_data:
        Federated shards (:class:`~repro.data.federated.ClientData`) used
        for triggered retraining rounds.
    eval_data:
        ``(x, y)`` held-out data: the accuracy gate's measurement set and
        the default canary traffic pool.
    config / gates / metric_probes:
        See :class:`LifecycleConfig`, :func:`default_gates` and the module
        docstring's gate-metric recipe.
    fault_injector / quorum:
        Passed to the retraining engine (:mod:`repro.faults`); the
        injector carries its own retry policy.
    state_dir:
        Makes the pipeline durable: decisions and promotion audits persist
        to this directory, and a pipeline rebuilt over it resumes its
        cycle counter and history
        (:class:`repro.faults.durable.DurableDecisionLog`).
    """

    def __init__(
        self,
        platform,
        model_name: str,
        client_data: Sequence,
        eval_data: Tuple[np.ndarray, np.ndarray],
        config: Optional[LifecycleConfig] = None,
        gates: Optional[Sequence[GateCheck]] = None,
        metric_probes: Optional[Mapping[str, Callable]] = None,
        fault_injector=None,
        quorum: Optional[float] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        self.platform = platform
        self.model_name = model_name
        self.client_data = list(client_data)
        self.eval_data = eval_data
        self.config = config or LifecycleConfig()
        self.gates: List[GateCheck] = list(gates) if gates is not None else default_gates()
        self.metric_probes: Dict[str, Callable] = dict(metric_probes or {})
        # repro.faults passthrough: retraining rounds run under this fault
        # plan and quorum (None keeps the plain engine).  An
        # aborted retraining round is surfaced in the decision record's
        # ``training`` dict so a degraded cycle is operator-visible.
        self.fault_injector = fault_injector
        self.quorum = quorum
        self.history: List[LifecycleDecision] = []
        self._drift_cursors: Dict[str, int] = {}
        self._ticks = 0
        self._cycles = 0
        # Durable decision log: with a ``state_dir`` every decision (and
        # its promotion audit map) is atomically persisted, and a pipeline
        # rebuilt over the same directory restarts with its history and
        # cycle counter restored — registry state is rebuilt by the world
        # setup; the *decisions* are what only this log remembers.
        self._decision_log = None
        if state_dir is not None:
            from repro.faults.durable import DurableDecisionLog

            self._decision_log = DurableDecisionLog(state_dir)
            for payload in self._decision_log.load():
                decision = LifecycleDecision.from_dict(payload)
                self.history.append(decision)
                self._cycles = max(self._cycles, decision.cycle + 1)

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def consume_drift_events(self) -> List[Dict[str, object]]:
        """New drift events across the fleet since the previous poll."""
        events: List[Dict[str, object]] = []
        for device_id in sorted(self.platform.monitors):
            monitor = self.platform.monitors[device_id]
            fresh, cursor = monitor.drift_events_since(self._drift_cursors.get(device_id, 0))
            self._drift_cursors[device_id] = cursor
            events.extend({"device_id": device_id, **event} for event in fresh)
        return events

    def poll(self) -> Optional[Dict[str, object]]:
        """The trigger that is due now, or None.

        Drift events take priority; otherwise a cycle is due every
        ``config.schedule_every``-th poll (when configured).
        """
        self._ticks += 1
        events = self.consume_drift_events()
        if events:
            return {
                "kind": "drift",
                "n_events": len(events),
                "devices": sorted({str(e["device_id"]) for e in events}),
            }
        if self.config.schedule_every and self._ticks % self.config.schedule_every == 0:
            return {"kind": "schedule", "tick": self._ticks}
        return None

    def step(self) -> Optional[LifecycleDecision]:
        """Poll for a trigger and run one cycle if one is due."""
        trigger = self.poll()
        if trigger is None:
            return None
        return self.run_cycle(trigger=trigger)

    # ------------------------------------------------------------------
    # one full cycle
    # ------------------------------------------------------------------
    def run_cycle(
        self,
        trigger: Optional[Dict[str, object]] = None,
        candidate_model: Optional[Sequential] = None,
        canary_inputs: Optional[np.ndarray] = None,
    ) -> LifecycleDecision:
        """Retrain (or take an injected candidate), canary, promote/rollback.

        ``candidate_model`` bypasses retraining — the scenario-injection
        hook used to prove the gate rejects bad-architecture / oversized /
        degraded candidates.  ``canary_inputs`` overrides the canary traffic
        pool (defaults to the held-out eval inputs; pass the live drifted
        window to canary under the conditions that fired the trigger).
        """
        trigger = dict(trigger) if trigger else {"kind": "manual"}
        cycle = self._cycles
        self._cycles += 1
        platform = self.platform
        registry = platform.registry
        incumbent_model = platform.deployed_models[self.model_name]
        production = registry.production(self.model_name)
        incumbent_version = (production or registry.latest(self.model_name, kind="base")).version_id

        # 1. retrain on a clone (or take the injected candidate as-is)
        training: Dict[str, object] = {}
        if candidate_model is None:
            engine = platform.build_federated_engine(
                incumbent_model,
                self.client_data,
                local_epochs=self.config.local_epochs,
                lr=self.config.lr,
                eval_data=self.eval_data,
                train_in_place=False,
                fault_injector=self.fault_injector,
                quorum=self.quorum,
            )
            rounds = engine.run(self.config.rounds)
            candidate_model = engine.global_model
            training = {
                "rounds": len(rounds),
                "final_accuracy": rounds[-1].global_accuracy if rounds else 0.0,
            }
            aborted = [r for r in rounds if r.aborted]
            degraded = {
                "aborted_rounds": len(aborted),
                "abort_reasons": [r.abort_reason for r in aborted],
                "n_crashes": sum(r.n_crashes for r in rounds),
                "n_delivery_failures": sum(r.n_delivery_failures for r in rounds),
                "n_retransmits": sum(r.n_retransmits for r in rounds),
                "shard_recoveries": sum(r.shard_recoveries for r in rounds),
            }
            if any(degraded[k] for k in degraded):
                # Only a degraded run carries the block, so fault-free
                # decision records keep their pre-fault-plane shape.
                training["degraded"] = degraded
        else:
            training = {"rounds": 0, "injected": True}

        # 2. register the candidate as a new base; fire optimization pipelines
        candidate_version = registry.register_model(
            candidate_model,
            kind="base",
            parents=(incumbent_version,),
            tags={"stage": "candidate", "trigger": trigger.get("kind", "manual"), "cycle": cycle},
            model_name=self.model_name,
        )
        derived = platform.triggers.on_base_registered(candidate_version)

        # 3. canary both models on cloned state with identical traffic
        canary_ids = self._canary_slice(cycle)
        windows = self._canary_windows(canary_ids, cycle, canary_inputs)
        candidate_report = self._canary_report(candidate_model, canary_ids, windows)
        incumbent_report = self._canary_report(incumbent_model, canary_ids, windows)

        # 4. gate
        reasons: List[str] = []
        for gate in self.gates:
            failure = gate.check(candidate_report, incumbent_report, self.config)
            if failure:
                reasons.append(f"{gate.name}: {failure}")
        promoted = not reasons

        # 5. apply
        promotion_audit: Dict[str, object] = {}
        if promoted:
            x_eval, y_eval = self.eval_data
            promotion_audit = platform.promote_model(
                self.model_name, candidate_model, candidate_version.version_id, x_eval=x_eval, y_eval=y_eval
            )
        else:
            registry.set_stage(candidate_version.version_id, "rejected")

        # 6. record the decision (content-addressed, tagged onto the version)
        decision = LifecycleDecision(
            cycle=cycle,
            trigger=trigger,
            promoted=promoted,
            candidate_version=candidate_version.version_id,
            incumbent_version=incumbent_version,
            reasons=reasons,
            candidate_metrics=candidate_report.metrics(),
            incumbent_metrics=incumbent_report.metrics(),
            derived_versions=[v.version_id for v in derived],
            canary_devices=list(canary_ids),
            training=training,
            stale_variants_after=len(registry.stale_variants(self.model_name)),
            promotion=promotion_audit or {},
        )
        record = registry.store.put_object(
            decision.as_dict(),
            kind="lifecycle-decision",
            name=f"{self.model_name}:cycle-{cycle}",
        )
        decision.record_digest = record.digest
        registry.tag_version(candidate_version.version_id, gate_record=record.digest)
        platform._log(
            "lifecycle_decision",
            model=self.model_name,
            cycle=cycle,
            trigger=trigger.get("kind"),
            promoted=promoted,
            candidate=candidate_version.version_id,
            reasons=reasons,
        )
        self.history.append(decision)
        if self._decision_log is not None:
            self._decision_log.append({**decision.as_dict(), "record_digest": record.digest})
        return decision

    # ------------------------------------------------------------------
    # canary internals
    # ------------------------------------------------------------------
    def _deployed_device_ids(self) -> List[str]:
        registry = self.platform.registry
        return sorted(
            device_id
            for device_id in registry.deployments
            if device_id in self.platform.fleet.devices
            and registry.deployed_version(device_id, self.model_name) is not None
        )

    def _canary_slice(self, cycle: int) -> List[str]:
        """A deterministic, seeded slice of the deployed fleet."""
        deployed = self._deployed_device_ids()
        if not deployed:
            raise RuntimeError(f"no deployed devices to canary {self.model_name!r} on")
        n = max(
            min(self.config.min_canary_devices, len(deployed)),
            int(round(self.config.canary_fraction * len(deployed))),
        )
        n = min(n, len(deployed))
        rng = np.random.default_rng([self.config.seed, 7, cycle])
        picks = rng.choice(len(deployed), size=n, replace=False)
        return [deployed[i] for i in sorted(picks)]

    def _canary_windows(
        self, canary_ids: Sequence[str], cycle: int, canary_inputs: Optional[np.ndarray]
    ) -> List[Dict[str, np.ndarray]]:
        """Seeded canary traffic, materialized once and replayed for both models."""
        pool = canary_inputs if canary_inputs is not None else self.eval_data[0]
        seed = int(np.random.SeedSequence([self.config.seed, 11, cycle]).generate_state(1)[0])
        generator = TrafficGenerator(list(canary_ids), seed=seed)
        counts = generator.steady(self.config.canary_windows, rate=self.config.canary_rate)
        return list(generator.windows(counts, np.asarray(pool)))

    def _sandbox(self, canary_ids: Sequence[str], model: Sequential) -> ServingEngine:
        """A serving engine over *clones* of the canary devices' state.

        ``FleetState.extract_rows`` copies the planes (deep-copying RNG
        streams), each ledger is forked at its head and each monitor is
        deep-copied, so nothing the canary does can perturb the production
        fleet — the same isolation contract the sharded backend's workers
        rely on.  What the copies cost does not grow with production's
        history: a head is O(#grants) however long the chain, and a monitor
        copy shares its read-only reference block.  A sandbox ledger meters
        like the real one but refuses to read its history (``used``,
        ``export``, ``verify_chain`` raise ``TypeError``), so a metric probe
        cannot read one by mistake.
        """
        platform = self.platform
        rows = platform.fleet.rows_for(canary_ids)
        sub_fleet = Fleet.from_state(platform.fleet.state.extract_rows(rows))
        ledgers = {
            device_id: platform.ledgers[device_id].fork_head()
            for device_id in canary_ids
            if device_id in platform.ledgers
        }
        monitors = {
            device_id: copy.deepcopy(platform.monitors[device_id])
            for device_id in canary_ids
            if device_id in platform.monitors
        }
        engine = ServingEngine(
            sub_fleet,
            cost_model=platform.cost_model,
            models={self.model_name: model},
            ledgers=ledgers,
            monitors=monitors,
        )
        try:
            engine.compile_model(self.model_name)
        except Exception:
            # Serving falls back to the nn forward; a model that cannot run
            # at all still surfaces as a serve error below.
            pass
        return engine

    def _canary_report(
        self,
        model: Sequential,
        canary_ids: Sequence[str],
        windows: Sequence[Dict[str, np.ndarray]],
    ) -> CanaryReport:
        """Serve the canary windows in a sandbox and measure the gate metrics."""
        platform = self.platform
        report = CanaryReport(size_bytes=model.num_params() * 4)

        profiles = [platform.fleet.get(device_id).profile for device_id in canary_ids]
        report.flash_compatible_fraction = float(
            np.mean([p.flash_bytes >= report.size_bytes for p in profiles])
        )
        latency_by_profile: Dict[str, float] = {}
        try:
            for profile in profiles:
                if profile.name not in latency_by_profile:
                    latency_by_profile[profile.name] = platform.cost_model.model_inference_cost(
                        profile, model
                    ).latency_s
            report.latency_s = float(np.mean([latency_by_profile[p.name] for p in profiles]))
            x_eval, y_eval = self.eval_data
            report.accuracy = float(model.evaluate(x_eval, y_eval)["accuracy"])
        except Exception as exc:  # wrong-architecture candidates die here
            report.error = f"{type(exc).__name__}: {exc}"
            return report

        sandbox = self._sandbox(canary_ids, model)
        cursors = {
            device_id: len(monitor.drift_events) for device_id, monitor in sandbox.monitors.items()
        }
        try:
            fleet_report = sandbox.serve_fleet(
                self.model_name, list(windows), engine=self.config.canary_engine
            )
        except Exception as exc:
            report.error = f"{type(exc).__name__}: {exc}"
            return report
        report.requested = fleet_report.requested
        report.served = fleet_report.served
        report.denied_quota = fleet_report.denied_quota
        report.battery_failures = fleet_report.battery_failures
        report.drift_devices = sum(
            1
            for device_id, monitor in sandbox.monitors.items()
            if monitor.drift_events_since(cursors[device_id])[0]
        )
        report.drift_fraction = report.drift_devices / max(len(canary_ids), 1)
        for name, probe in self.metric_probes.items():
            report.extras[name] = float(probe(sandbox, model, fleet_report))
        return report
