"""Vectorized, fleet-scale serving engine (paper Sections III-B / III-C).

The paper's serving path meters, battery-accounts and monitors **one query
at a time**; fine for a 40-device demo, hopeless for "heavy traffic from
millions of users" (ROADMAP north star).  :class:`ServingEngine` serves a
whole traffic window as **one transaction**,
:meth:`ServingEngine._serve_fleet_window`, that preserves the exact
admission semantics of the per-query loop:

1. **Quota** — :meth:`~repro.billing.UsageLedger.record_batch` consumes
   prepaid quota for each device's window in O(#grants), appending
   aggregated MAC-chained ledger entries.  Queries past exhaustion are
   denied, so the *first* ``granted`` queries of the window are admitted —
   a prefix, exactly like the loop.
2. **Battery** — the closed-form draw computes in one division how many of
   the admitted queries the remaining charge covers; the rest fail, and the
   battery drains to zero just as the first failing per-query draw would
   have left it.
3. **Observability** — the monitor observes only the *served* slice of the
   window (inputs, predictions and correctly-sized latency/energy/memory
   arrays), fixing the historical bug where the full window was paired with
   ``served``-length telemetry arrays.

Quota metering and the outcome are shared by every engine.  The outcome
is columns (ids, fleet rows, int64 requested / granted / served counts) that
:meth:`FleetServeReport.record` adds to one count block with a row per
device seen; ``per_device`` is built only when read.  The
default **fleet sweep** runs the other stages as one
:meth:`~repro.devices.FleetState.draw_batch_rows` battery sweep, one
compiled-plan :meth:`~repro.exchange.CompiledExecutor.run_many` call and
one :meth:`~repro.observability.FleetMonitor.observe_fleet` drift sweep per
(model, window).  ``serve_fleet(engine="oracle")`` and
:meth:`ServingEngine.serve_batch` (a one-device window) run the same
transaction with per-device reference kernels instead, so the oracle is a
reference kernel, not a second copy of the control flow.

:meth:`ServingEngine.serve_batch_legacy` keeps the original per-query loop
as a reference oracle: the equivalence tests assert that batched and legacy
serving produce identical admission counts, ledger state and billing.
(Battery admission counts are bit-identical for binary-exact energies; see
the floating-point caveat on :meth:`~repro.devices.Battery.draw_batch`.)

Engine convention (see :mod:`repro.dispatch`): :meth:`ServingEngine.serve_fleet`
takes ``engine="batched"`` (default, the fleet sweep), ``engine="oracle"``
(the per-device kernels) or ``engine="sharded"`` (the fleet sweep
partitioned across a :class:`~repro.runtime.sharded.ShardedFleetRunner`
process pool and merged at a barrier, byte-identical to ``"batched"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, MutableMapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.billing import QuotaExceededError, UsageLedger
from repro.devices import CostModel, Fleet
from repro.dispatch import ENGINE_ORACLE, ENGINE_SHARDED, resolve_engine
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

    Per-device counts are one int64 block with a row per device seen, in
    first-seen order, and columns ``requested``, ``granted``, ``served``
    and ``network_failures`` (the other two keys are differences), beside
    the device ids and their fleet rows in the same order; it grows with
    the devices a report serves, not with the fleet.  :attr:`per_device`
    builds the ``{device_id: {key: int}}`` dict from them on read.
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
    _ids: List[str] = field(default_factory=list, init=False, repr=False)
    _rows: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64), init=False, repr=False)
    _sorter: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _block: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), np.int64), init=False, repr=False)

    def _positions(self, ids: Sequence[str], rows: np.ndarray) -> np.ndarray:
        """Block positions of the distinct fleet ``rows``; a row not seen yet
        gets a new block row, its id next in the first-seen order."""
        seen = len(self._rows)
        pos = np.full(len(rows), -1, dtype=np.intp)
        if seen:
            at = np.minimum(np.searchsorted(self._rows, rows, sorter=self._sorter), seen - 1)
            if self._sorter is not None:
                at = self._sorter[at]
            pos = np.where(self._rows[at] == rows, at, -1)
        fresh = np.flatnonzero(pos < 0)
        if fresh.size:
            pos[fresh] = np.arange(seen, seen + fresh.size)
            self._ids += [ids[i] for i in fresh.tolist()]
            self._rows = np.concatenate([self._rows, rows[fresh]])
            self._block = np.concatenate([self._block, np.zeros((fresh.size, 4), np.int64)])
            # Windows mostly arrive in fleet order: no sort index while the rows ascend.
            ascending = bool((self._rows[1:] > self._rows[:-1]).all())
            self._sorter = None if ascending else np.argsort(self._rows, kind="stable")
        return pos

    def record(self, ids: Sequence[str], rows: np.ndarray, requested: np.ndarray,
               granted: np.ndarray, served: np.ndarray) -> None:
        """Add one window's outcome: the non-empty device windows ``ids`` at
        distinct fleet ``rows``, with their int64 request, grant and serve
        counts (what :meth:`ServingEngine._serve_fleet_window` returns)."""
        n, g, s = int(requested.sum()), int(granted.sum()), int(served.sum())
        self.requested += n
        self.served += s
        self.denied_quota += n - g
        self.battery_failures += g - s
        pos = self._positions(ids, rows)  # may grow the block: index it after
        self._block[pos, :3] += np.stack([requested, granted, served], axis=1)

    def add_network_failure(self, device_id: str, row: int, n_queries: int) -> None:
        """Account queries lost to a window-long device partition."""
        self.requested += n_queries
        self.network_failures += n_queries
        pos = self._positions([device_id], np.array([row]))[0]
        self._block[pos, [0, 3]] += n_queries

    @property
    def per_device(self) -> Dict[str, Dict[str, int]]:
        """``{device_id: {requested, served, denied_quota, battery_failures,
        network_failures}}`` of ``int`` counts, in first-seen order, built on read."""
        return {
            device_id: {"requested": n, "served": s, "denied_quota": n - lost - g,
                        "battery_failures": g - s, "network_failures": lost}
            for device_id, (n, g, s, lost) in zip(self._ids, self._block.tolist())
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, FleetServeReport):
            return NotImplemented
        return self.as_dict() == other.as_dict() and self.per_device == other.per_device

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
        self.plans: Dict[str, object] = {}
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

        The window transaction on a one-device window, with the per-device
        kernels (``_serve_fleet_window(per_device=True)``).  Admission is a
        two-stage prefix filter identical to the per-query loop: quota
        grants the first ``granted`` queries (consuming quota even for
        queries that later fail on battery, since metering happens before
        execution), then the battery covers the first ``served`` of those.
        Only the served slice reaches the drift monitor.  An empty window
        serves nothing; an unknown model or device raises ``KeyError``.
        """
        ids, _, *counts = self._serve_fleet_window(model_name, {device_id: x}, bits, per_device=True)
        if not ids:
            self.fleet.get(device_id)  # an empty window still names a known device
        n, g, s = (int(c.sum()) for c in counts)  # an empty window sums to 0
        monitor = self.monitors.get(device_id)
        drift = bool(monitor.any_drift()) if monitor is not None else False
        return ServeResult(device_id, model_name, n, s, n - g, g - s, drift)

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
        self,
        model_name: str,
        window: Mapping[str, np.ndarray],
        bits: int,
        per_device: bool = False,
    ) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Serve one fleet-wide window: meter, admit, predict, monitor.

        The one serving transaction.  Quota metering is a per-device loop
        in window order (each ledger's MAC chain is sequential) and admits a
        prefix of each device's window; the battery then covers a prefix of
        the granted queries, and only the served slice of a monitored
        device is predicted and observed.  Returns the outcome as columns,
        the shape :meth:`FleetServeReport.record` takes: the ids of the
        non-empty device windows in window order, their fleet rows, and
        their ``requested``, ``granted`` and ``served`` counts (int64).

        By default the other stages are fleet sweeps: costs cached per
        (model, profile, bits) and resolved once per distinct profile code,
        one :meth:`~repro.devices.FleetState.draw_batch_rows` battery sweep
        (per row exactly :meth:`~repro.devices.Battery.draw_batch`), one
        compiled-plan ``run_many`` (per-device ``nn`` forwards without a
        plan) and one :meth:`FleetMonitor.observe_fleet`.  ``per_device``
        (the twin of ``FederatedEngine._collect_deltas(per_client=...)``)
        swaps only those kernels for one ``model_inference_cost``,
        :meth:`~repro.devices.EdgeDevice.execute_batch`,
        :meth:`_predict_classes` and :meth:`EdgeMonitor.observe_window` per
        device; the outcome is identical.
        """
        model = self.models[model_name]
        plan = self.plans.get(model_name)
        row_of, ledgers = self.fleet.row_of, self.ledgers
        # Parallel lists: device_id, row, window, granted.
        ids: List[str] = []
        rows: List[int] = []
        xs: List[np.ndarray] = []
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
        row_arr = np.asarray(rows, dtype=np.intp)
        requested = np.array([x.shape[0] for x in xs], dtype=np.int64)
        granted = np.asarray(granteds, dtype=np.int64)
        if per_device:
            devices = [self.fleet.get(device_id) for device_id in ids]
            costs = [self.cost_model.model_inference_cost(d.profile, model, bits=bits) for d in devices]
            served = np.array([d.execute_batch(c, g, record=False) for d, c, g in zip(devices, costs, granteds)],
                              dtype=np.int64)
        else:
            state = self.fleet.state
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
            served = state.draw_batch_rows(
                row_arr, np.array([c.energy_j for c in code_costs], dtype=np.float64)[inverse], granted
            )
            state.query_count[row_arr] += served
        monitored = [
            (device_id, x[:k], cost, k)
            for device_id, x, cost, k in zip(ids, xs, costs, served.tolist())
            if k and self.monitors.get(device_id) is not None
        ]
        if monitored:
            slices = [s for _, s, _, _ in monitored]
            if plan is None or per_device:
                preds = [self._predict_classes(model_name, s) for s in slices]
            else:
                preds = [out.argmax(axis=-1) for out in plan.run_many(slices)]
            telemetry = dict(
                predictions={device_id: p for (device_id, _, _, _), p in zip(monitored, preds)},
                latencies={device_id: np.full(k, cost.latency_s) for device_id, _, cost, k in monitored},
                energies={device_id: np.full(k, cost.energy_j) for device_id, _, cost, k in monitored},
                memories={device_id: np.full(k, cost.peak_memory_bytes) for device_id, _, cost, k in monitored},
            )
            if per_device:
                for device_id, s, _, _ in monitored:
                    self.monitors[device_id].observe_window(s, **{k: v[device_id] for k, v in telemetry.items()})
            else:
                self._fleet_monitor().observe_fleet({device_id: s for device_id, s, _, _ in monitored}, **telemetry)
        return ids, row_arr, requested, granted, served

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

        Every window is one :meth:`_serve_fleet_window` transaction.  With
        ``engine="batched"`` (the default) its kernels are fleet sweeps —
        one columnar battery-admission sweep, one compiled-plan sweep and
        one fleet drift sweep per (model, window).  ``engine="oracle"``
        runs the same transaction with the per-device reference kernels
        (``per_device=True``); both produce identical reports,
        ledger/battery state and monitor histories.
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
                            report.add_network_failure(device_id, self.fleet.row_of(device_id), n)
                if runner is not None:
                    runner.serve_window(self, model_name, window, report, bits=32)
                else:
                    report.record(*self._serve_fleet_window(model_name, window, 32, per_device=engine == ENGINE_ORACLE))
        finally:
            if runner is not None and runner is not self.shard_runner:
                runner.close()  # a runner built for this call owns processes
        report.devices_with_drift = sum(1 for m in self.monitors.values() if m.any_drift())
        return report
