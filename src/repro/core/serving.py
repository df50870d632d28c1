"""Vectorized, fleet-scale serving engine (paper Sections III-B / III-C).

The paper's serving path meters, battery-accounts and monitors **one query
at a time**; fine for a 40-device demo, hopeless for "heavy traffic from
millions of users" (ROADMAP north star).  :class:`ServingEngine` replaces
the per-query Python loop with three O(1)-per-window batch operations while
preserving the exact admission semantics of the loop:

1. **Quota** — :meth:`~repro.billing.UsageLedger.record_batch` consumes
   prepaid quota for the whole window in O(#grants), appending aggregated
   MAC-chained ledger entries.  Queries past exhaustion are denied, so the
   *first* ``granted`` queries of the window are admitted — a prefix,
   exactly like the loop.
2. **Battery** — :meth:`~repro.devices.EdgeDevice.execute_batch` computes
   in one division how many of the admitted queries the remaining charge
   covers; the rest fail, and the battery drains to zero just as the first
   failing per-query draw would have left it.
3. **Observability** — the monitor observes only the *served* slice of the
   window (inputs, predictions and correctly-sized latency/energy/memory
   arrays), fixing the historical bug where the full window was paired with
   ``served``-length telemetry arrays.

:meth:`ServingEngine.serve_batch_legacy` keeps the original per-query loop
as a reference oracle: the equivalence tests assert that batched and legacy
serving produce identical admission counts, ledger state and billing.
(Battery admission counts are bit-identical for binary-exact energies; see
the floating-point caveat on :meth:`~repro.devices.Battery.draw_batch`.)

:meth:`ServingEngine.serve_fleet` drives an entire fleet through one or
more traffic windows (see :mod:`repro.core.traffic` for scenario
generators) and returns a fleet-level report.  By default it runs the
**fleet sweep**: battery admission for the whole window is *one*
:meth:`~repro.devices.FleetState.draw_batch_rows` sweep over the fleet's
columnar store (quota metering stays per-device — the MAC chain is
inherently sequential), all admitted slices of a (model, window) pair
execute through *one* compiled-plan
:meth:`~repro.exchange.CompiledExecutor.run_many` call, and all served
slices feed *one* :meth:`~repro.observability.FleetMonitor.observe_fleet`
drift sweep — instead of one ``plan.run`` + ``observe_window`` pair per
device.

Engine convention (see :mod:`repro.dispatch`): ``serve_fleet`` takes
``engine="batched"`` (default, the fleet sweep), ``engine="oracle"``
(the per-device :meth:`serve_batch` loop kept as the reference) or
``engine="sharded"`` (the fleet sweep partitioned across a
:class:`~repro.runtime.sharded.ShardedFleetRunner` process pool and merged
at a barrier, byte-identical to ``"batched"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, MutableMapping, Optional, Tuple, Union

import numpy as np

from repro.billing import QuotaExceededError, UsageLedger
from repro.devices import CostModel, Fleet
from repro.dispatch import ENGINE_BATCHED, ENGINE_SHARDED, resolve_engine
from repro.observability import EdgeMonitor, FleetMonitor

__all__ = ["ServeResult", "FleetServeReport", "ServingEngine"]


@dataclass(frozen=True)
class ServeResult:
    """Outcome of serving one traffic window on one device."""

    device_id: str
    model_name: str
    requested: int
    served: int
    denied_quota: int
    battery_failures: int
    drift_detected: bool

    def as_dict(self) -> Dict[str, object]:
        """The legacy ``TinyMLOpsPlatform.serve`` return payload."""
        return {
            "served": self.served,
            "denied_quota": self.denied_quota,
            "battery_failures": self.battery_failures,
            "drift_detected": self.drift_detected,
        }


@dataclass
class FleetServeReport:
    """Aggregate outcome of driving a whole fleet through traffic windows.

    ``shard_recoveries`` counts shards the sharded backend had to re-execute
    in-process after a worker fault (:mod:`repro.runtime.sharded`); it stays
    0 on fault-free runs and on the single-process engines, so report
    equality across engines is unaffected while a recovered run is
    explicitly flagged.  ``network_failures`` counts queries that never
    reached their device because a fault plan partitioned it for the window
    (:mod:`repro.faults`): they are requested-but-unserved and *never
    billed* — the ledger meters admissions, and a partitioned device admits
    nothing.
    """

    model_name: str
    n_windows: int = 0
    requested: int = 0
    served: int = 0
    denied_quota: int = 0
    battery_failures: int = 0
    devices_with_drift: int = 0
    shard_recoveries: int = 0
    network_failures: int = 0
    per_device: Dict[str, Dict[str, int]] = field(default_factory=dict)

    _DEVICE_KEYS = ("requested", "served", "denied_quota", "battery_failures", "network_failures")

    def _device_stats(self, device_id: str) -> Dict[str, int]:
        stats = self.per_device.get(device_id)
        if stats is None:
            stats = self.per_device[device_id] = dict.fromkeys(self._DEVICE_KEYS, 0)
        return stats

    def add(self, result: ServeResult) -> None:
        self.requested += result.requested
        self.served += result.served
        self.denied_quota += result.denied_quota
        self.battery_failures += result.battery_failures
        stats = self._device_stats(result.device_id)
        stats["requested"] += result.requested
        stats["served"] += result.served
        stats["denied_quota"] += result.denied_quota
        stats["battery_failures"] += result.battery_failures

    def add_network_failure(self, device_id: str, n_queries: int) -> None:
        """Account queries lost to a window-long device partition."""
        self.requested += n_queries
        self.network_failures += n_queries
        stats = self._device_stats(device_id)
        stats["requested"] += n_queries
        stats["network_failures"] += n_queries

    def as_dict(self) -> Dict[str, object]:
        return {
            "model_name": self.model_name,
            "n_windows": self.n_windows,
            "requested": self.requested,
            "served": self.served,
            "denied_quota": self.denied_quota,
            "battery_failures": self.battery_failures,
            "devices_with_drift": self.devices_with_drift,
            "shard_recoveries": self.shard_recoveries,
            "network_failures": self.network_failures,
            "served_fraction": self.served / max(self.requested, 1),
        }


class ServingEngine:
    """Batched serving over a fleet: metering, battery accounting, monitoring.

    The engine shares the platform's per-device state *by reference*
    (``models``, ``ledgers`` and ``monitors`` are the facade's own dicts),
    so serving through the engine and through ``TinyMLOpsPlatform.serve``
    observe and mutate the same world.
    """

    def __init__(
        self,
        fleet: Fleet,
        cost_model: Optional[CostModel] = None,
        models: Optional[MutableMapping[str, object]] = None,
        ledgers: Optional[MutableMapping[str, UsageLedger]] = None,
        monitors: Optional[MutableMapping[str, EdgeMonitor]] = None,
        plans: Optional[MutableMapping[str, object]] = None,
        fault_injector=None,
    ) -> None:
        self.fleet = fleet
        self.cost_model = cost_model or CostModel()
        # Optional repro.faults.FaultInjector: serve_fleet consults it once
        # per window (parent-side, before engine dispatch) to drop queries
        # of partitioned devices, so batched/oracle/sharded all serve the
        # identical filtered window.
        self.fault_injector = fault_injector
        self.models: MutableMapping[str, object] = models if models is not None else {}
        self.ledgers: MutableMapping[str, UsageLedger] = ledgers if ledgers is not None else {}
        self.monitors: MutableMapping[str, EdgeMonitor] = monitors if monitors is not None else {}
        # Compiled plans (repro.exchange.CompiledExecutor) keyed by model
        # name; when present they replace the per-query nn.Model forward in
        # serve_batch.  Opt-in via compile_model so existing worlds keep the
        # model path untouched.
        self.plans: MutableMapping[str, object] = plans if plans is not None else {}
        self._plan_options: Dict[str, tuple] = {}
        # Per-model inference-cost cache for the fleet sweep, keyed by
        # (profile, bits); invalidated when the model object for a name is
        # replaced (cost depends on architecture, not weights).
        self._cost_cache: Dict[str, Tuple[object, Dict[tuple, object]]] = {}
        # Fleet-monitor cache for serve_fleet: rebuilt whenever the set of
        # monitor objects changes (e.g. a re-deploy replaced a monitor).
        self._fleet_monitor_cache: Optional[Tuple[tuple, FleetMonitor]] = None
        # Optional pre-configured ShardedFleetRunner used by
        # serve_fleet(engine="sharded"); None builds a default per call.
        self.shard_runner = None

    # ------------------------------------------------------------------
    def compile_model(self, model_name: str, pipeline=None, apply_quantization: Optional[bool] = None):
        """Lower a deployed model into a compiled plan for the serving path.

        The model is exported to the graph IR, run through the standard
        inference passes (or a caller-supplied
        :class:`~repro.exchange.PassPipeline`) and compiled into a
        :class:`~repro.exchange.CompiledExecutor`; subsequent
        :meth:`serve_batch` calls for this model execute the plan instead of
        the layer-by-layer ``nn`` forward.

        Omitted arguments reuse the options of the previous
        :meth:`compile_model` call for this model, so rebuilds after weight
        updates (e.g. a federated round) keep any custom lowering.
        """
        from repro.exchange import CompiledExecutor, PassPipeline, from_sequential

        stored_pipeline, stored_quant = self._plan_options.get(model_name, (None, True))
        if pipeline is None:
            pipeline = stored_pipeline
        if apply_quantization is None:
            apply_quantization = stored_quant
        model = self.models[model_name]
        lowering = pipeline or PassPipeline.standard_inference()
        plan = CompiledExecutor(lowering.run(from_sequential(model)), apply_quantization=apply_quantization)
        self.plans[model_name] = plan
        self._plan_options[model_name] = (pipeline, apply_quantization)
        return plan

    def _predict_classes(self, model_name: str, x: np.ndarray) -> np.ndarray:
        """Class predictions via the compiled plan when one is registered."""
        plan = self.plans.get(model_name)
        if plan is not None:
            return plan.run(x).argmax(axis=-1)
        return self.models[model_name].predict_classes(x)

    # ------------------------------------------------------------------
    def serve_batch(self, device_id: str, model_name: str, x: np.ndarray, bits: int = 32) -> ServeResult:
        """Serve one window of ``x.shape[0]`` queries on a device, batched.

        Admission is a two-stage prefix filter identical to the per-query
        loop: quota grants the first ``granted`` queries (consuming quota
        even for queries that later fail on battery, since metering happens
        before execution), then the battery covers the first ``served`` of
        those.  Only the served slice reaches the drift monitor.
        """
        device = self.fleet.get(device_id)
        model = self.models[model_name]
        ledger = self.ledgers.get(device_id)
        monitor = self.monitors.get(device_id)
        n = int(x.shape[0])
        cost = self.cost_model.model_inference_cost(device.profile, model, bits=bits)

        granted = ledger.record_batch(model_name, n) if ledger is not None else n
        served = device.execute_batch(cost, granted, record=False)
        denied = n - granted
        battery_failures = granted - served

        if monitor is not None and served:
            preds = self._predict_classes(model_name, x[:served])
            monitor.observe_window(
                x[:served],
                predictions=preds,
                latencies=np.full(served, cost.latency_s),
                energies=np.full(served, cost.energy_j),
                memories=np.full(served, cost.peak_memory_bytes),
            )
        return ServeResult(
            device_id=device_id,
            model_name=model_name,
            requested=n,
            served=served,
            denied_quota=denied,
            battery_failures=battery_failures,
            drift_detected=bool(monitor.any_drift()) if monitor is not None else False,
        )

    # ------------------------------------------------------------------
    def serve_batch_legacy(self, device_id: str, model_name: str, x: np.ndarray, bits: int = 32) -> ServeResult:
        """Reference per-query loop (the paper's original serving path).

        Kept as the oracle for equivalence tests and as the baseline the
        batched-serving benchmark measures its speedup against.  Applies the
        same served-slice monitoring fix as :meth:`serve_batch` so both
        paths feed identical windows to the drift detectors.  Quota is
        metered per query; the battery stage goes through
        :meth:`~repro.devices.EdgeDevice.execute_batch` with ``exact=True``
        — the iterated-subtraction semantics, bit-identical to the paper's
        per-query draws (quota exhaustion is a prefix, so hoisting the
        battery stage out of the loop changes nothing).
        """
        device = self.fleet.get(device_id)
        model = self.models[model_name]
        ledger = self.ledgers.get(device_id)
        monitor = self.monitors.get(device_id)
        granted = 0
        denied = 0
        cost = self.cost_model.model_inference_cost(device.profile, model, bits=bits)
        for _ in range(x.shape[0]):
            if ledger is not None:
                try:
                    ledger.record_query(model_name)
                except QuotaExceededError:
                    denied += 1
                    continue
            granted += 1
        served = device.execute_batch(cost, granted, record=False, exact=True)
        battery_failures = granted - served
        if monitor is not None and served:
            preds = model.predict_classes(x[:served])
            monitor.observe_window(
                x[:served],
                predictions=preds,
                latencies=np.full(served, cost.latency_s),
                energies=np.full(served, cost.energy_j),
                memories=np.full(served, cost.peak_memory_bytes),
            )
        return ServeResult(
            device_id=device_id,
            model_name=model_name,
            requested=int(x.shape[0]),
            served=served,
            denied_quota=denied,
            battery_failures=battery_failures,
            drift_detected=bool(monitor.any_drift()) if monitor is not None else False,
        )

    # ------------------------------------------------------------------
    def _fleet_monitor(self) -> FleetMonitor:
        """The cached fleet-level monitor over the current per-device monitors."""
        key = tuple(sorted((device_id, id(monitor)) for device_id, monitor in self.monitors.items()))
        if self._fleet_monitor_cache is None or self._fleet_monitor_cache[0] != key:
            self._fleet_monitor_cache = (key, FleetMonitor(self.monitors))
        return self._fleet_monitor_cache[1]

    def _window_costs(self, model_name: str, model) -> Dict[tuple, object]:
        """Per-(profile, bits) inference-cost cache for one deployed model."""
        cached = self._cost_cache.get(model_name)
        if cached is None or cached[0] is not model:
            cached = (model, {})
            self._cost_cache[model_name] = cached
        return cached[1]

    def _serve_fleet_window(
        self, model_name: str, window: Mapping[str, np.ndarray], report: FleetServeReport, bits: int
    ) -> List[ServeResult]:
        """Serve one fleet-wide window with one battery + prediction + drift sweep.

        Admission (quota then battery) is the same two-stage prefix filter
        :meth:`serve_batch` applies.  Quota metering stays a per-device loop
        in window order (each ledger's MAC chain is sequential), but battery
        admission for every device in the window is one
        :meth:`~repro.devices.FleetState.draw_batch_rows` sweep over the
        fleet's columnar store — the per-row arithmetic is exactly
        :meth:`~repro.devices.Battery.draw_batch`, so admission decisions
        and resulting battery levels match the object loop bit for bit.
        Inference costs are cached per (model, profile, bits) and resolved
        once per distinct profile code after the metering loop: a window
        over 10k devices of 6 profiles looks up 6 costs, not 10k.  The served
        slices of every monitored device then flow through one compiled-plan
        ``run_many`` sweep (the plan falls back to per-window execution
        internally when its kernels are not stacking-exact) and one
        :meth:`FleetMonitor.observe_fleet` drift sweep.  Without a compiled
        plan predictions stay per-device, preserving the oracle's per-window
        ``nn`` forwards.
        """
        model = self.models[model_name]
        plan = self.plans.get(model_name)
        state = self.fleet.state
        row_of, ledgers = self.fleet.row_of, self.ledgers
        # Parallel lists: device_id, row, window, requested, granted.
        ids: List[str] = []
        rows: List[int] = []
        xs: List[np.ndarray] = []
        ns: List[int] = []
        granteds: List[int] = []
        for device_id, x in window.items():
            x = np.asarray(x)
            n = x.shape[0]
            if n == 0:
                continue
            rows.append(row_of(device_id))
            ledger = ledgers.get(device_id)
            granteds.append(ledger.record_batch(model_name, n) if ledger is not None else n)
            ids.append(device_id)
            xs.append(x)
            ns.append(n)
        if not ids:
            return []
        row_arr = np.asarray(rows, dtype=np.intp)
        # One cost per distinct profile code in the window, not per device.
        codes, inverse = np.unique(state.profile_idx[row_arr], return_inverse=True)
        costs_by_profile = self._window_costs(model_name, model)
        code_costs = []
        for code in codes.tolist():
            profile = state.profile_table[code]
            cost = costs_by_profile.get((profile, bits))
            if cost is None:
                cost = self.cost_model.model_inference_cost(profile, model, bits=bits)
                costs_by_profile[(profile, bits)] = cost
            code_costs.append(cost)
        costs = [code_costs[i] for i in inverse.tolist()]
        served_arr = state.draw_batch_rows(
            row_arr,
            np.array([c.energy_j for c in code_costs], dtype=np.float64)[inverse],
            np.asarray(granteds, dtype=np.int64),
        )
        state.query_count[row_arr] += served_arr
        admitted = [
            (device_id, x, n, cost, granted, int(served))
            for device_id, x, n, cost, granted, served in zip(ids, xs, ns, costs, granteds, served_arr)
        ]
        # One prediction sweep over every monitored device's served slice.
        monitored = [
            (device_id, x[:served], cost, served)
            for device_id, x, n, cost, granted, served in admitted
            if served and self.monitors.get(device_id) is not None
        ]
        if monitored:
            slices = [s for _, s, _, _ in monitored]
            if plan is not None:
                outputs = plan.run_many(slices)
                preds = [out.argmax(axis=-1) for out in outputs]
            else:
                preds = [self.models[model_name].predict_classes(s) for s in slices]
            self._fleet_monitor().observe_fleet(
                {device_id: s for device_id, s, _, _ in monitored},
                predictions={device_id: p for (device_id, _, _, _), p in zip(monitored, preds)},
                latencies={device_id: np.full(served, cost.latency_s) for device_id, _, cost, served in monitored},
                energies={device_id: np.full(served, cost.energy_j) for device_id, _, cost, served in monitored},
                memories={device_id: np.full(served, cost.peak_memory_bytes) for device_id, _, cost, served in monitored},
            )
        results: List[ServeResult] = []
        for device_id, x, n, cost, granted, served in admitted:
            monitor = self.monitors.get(device_id)
            result = ServeResult(
                device_id=device_id,
                model_name=model_name,
                requested=n,
                served=served,
                denied_quota=n - granted,
                battery_failures=granted - served,
                drift_detected=bool(monitor.any_drift()) if monitor is not None else False,
            )
            report.add(result)
            results.append(result)
        return results

    def serve_fleet(
        self,
        model_name: str,
        traffic: Union[Mapping[str, np.ndarray], Iterable[Mapping[str, np.ndarray]]],
        engine: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> FleetServeReport:
        """Drive the whole fleet through one window — or a scenario of windows.

        ``traffic`` is either a single window (mapping ``device_id`` to that
        device's query inputs) or an iterable of such windows, e.g. the
        output of a :mod:`repro.core.traffic` generator.  Devices mapped to
        empty arrays are skipped.

        With ``engine="batched"`` (the default) each window is served by
        :meth:`_serve_fleet_window` — one columnar battery-admission sweep,
        one compiled-plan sweep and one fleet drift sweep per
        (model, window).  ``engine="oracle"`` keeps the per-device
        :meth:`serve_batch` loop as the reference; both paths produce
        identical reports, ledger/battery state and monitor histories.
        ``engine="sharded"`` partitions each window across ``workers``
        processes (a :class:`~repro.runtime.sharded.ShardedFleetRunner`;
        assign :attr:`shard_runner` to customize backend/timeouts and to
        keep its worker processes alive across calls — you then own its
        ``close()``; a runner built here is closed before returning) and
        merges at a barrier, byte-identical to the batched path — falling
        back to it single-process when the shards would be degenerate
        (:mod:`repro.dispatch`).
        """
        engine = resolve_engine(engine, owner="ServingEngine.serve_fleet", extra=(ENGINE_SHARDED,))
        windows: Iterable[Mapping[str, np.ndarray]]
        if isinstance(traffic, Mapping):
            windows = [traffic]
        else:
            windows = traffic
        runner = None
        if engine == ENGINE_SHARDED:
            from repro.runtime.sharded import ShardedFleetRunner

            runner = self.shard_runner or ShardedFleetRunner(workers=workers)
        report = FleetServeReport(model_name=model_name)
        try:
            for window in windows:
                report.n_windows += 1
                if self.fault_injector is not None:
                    # Partitioned devices' queries never arrive: drop them
                    # before engine dispatch (every engine sees the identical
                    # filtered window) and surface them as network_failures —
                    # requested, unserved, unbilled.
                    window, dropped = self.fault_injector.filter_window(dict(window))
                    for device_id, x in dropped.items():
                        n = int(np.asarray(x).shape[0])
                        if n:
                            report.add_network_failure(device_id, n)
                if runner is not None:
                    runner.serve_window(self, model_name, window, report, bits=32)
                elif engine == ENGINE_BATCHED:
                    self._serve_fleet_window(model_name, window, report, bits=32)
                else:
                    for device_id, x in window.items():
                        x = np.asarray(x)
                        if x.shape[0] == 0:
                            continue
                        report.add(self.serve_batch(device_id, model_name, x))
        finally:
            if runner is not None and runner is not self.shard_runner:
                runner.close()  # a runner built for this call owns processes
        report.devices_with_drift = sum(1 for m in self.monitors.values() if m.any_drift())
        return report
