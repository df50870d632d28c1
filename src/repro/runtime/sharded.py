"""Sharded multi-process fleet backend with deterministic barrier merges.

Closes ROADMAP item 2: after the columnar :class:`~repro.devices.FleetState`
redesign made fleet state ~16 NumPy planes, this module partitions those
planes into per-worker shards, runs the *batched* single-process engines
independently per shard in the runner's worker processes, and merges the
results at a barrier so the outcome is **byte-identical** to
``engine="batched"`` — which stays the in-process oracle (and itself stays
equivalent to ``engine="oracle"``, the scalar loop).

What gets sharded, and why it is byte-safe
------------------------------------------
*Serving* (``serve_fleet``): the window's devices are split into contiguous,
balanced shards.  Every per-device outcome is independent — quota metering
is per-device (each device owns its MAC chain), battery admission is a
per-row closed form, compiled-plan ``run_many`` is per-window exact, and
:class:`~repro.observability.FleetMonitor` sweeps equal the per-device loop
— so shard composition cannot change any value.  At the barrier:

* MAC-chained ledger segments are re-chained in shard order via
  :meth:`~repro.billing.UsageLedger.append_segment` (each worker metered
  on the parent ledger's :meth:`~repro.billing.UsageLedger.fork_head`, so
  its segment is a valid chain extension of the parent head — and is
  validated as one, entry by entry, before the first append);
* drift events / telemetry come home as whole updated monitor objects,
  re-installed in canonical device order (each device's monitor observed
  exactly the slice the batched sweep would have fed it);
* battery/counter planes merge back via
  :meth:`~repro.devices.FleetState.merge_rows`.

*Federated* (``run_round``): the runner is a *training kernel* of the
engine's one collect loop, not a second loop.
:meth:`ShardedFleetRunner.train_cohorts` is handed the round's batched
cohorts and runs each one's
:func:`~repro.federated.engine.train_clients_batched` sweep whole inside one
worker with identical inputs — splitting a cohort would change the stacked
tensor geometry (``n_max`` padding, GEMM widths) and risk last-ulp drift —
and returns the kernel's ``(deltas, losses, accs)`` per cohort.  Everything
else — partitioning, idle and fallback cohorts (which train in the parent,
so cross-round optimizer state persists), row placement, checkpoints,
aggregation — is the engine's, shared with ``engine="batched"``.

Backends (``backend=`` kwarg) and what ships per shard
------------------------------------------------------
``"pickle"``   the pooled path.  Each shard's payload travels down its
               worker's pipe: a sub-store (:meth:`FleetState.extract_rows`,
               ~130 B/device), the window's inputs, the model, the shard's
               monitors, and one :class:`~repro.billing.LedgerHead` per
               ledger — device key, grants, per-grant usage, clock, next
               index, head MAC; ~290 B however long the chain is.  Back
               come the results, the appended ledger segments, the updated
               monitors and the mutated sub-store.  The pickle *is* the
               isolation copy; nothing the window mutates is deep-copied
               parent-side.  On e0's aged 300-device world that is 1.8 MB
               down and 1.3 MB up per shard — 87 KB of heads per window
               where whole ledgers were 1.46 MB and growing with every
               window ever served.  What is left is the monitors: 1.2 MB
               per shard each way (15 monitors' KS reference windows).
``"inline"``   the full shard/split/merge machinery executed in-process —
               no workers.  Exists so differential and property tests can
               exercise shard semantics deterministically and cheaply; it
               must be (and is asserted) byte-identical to the pooled path.
               Parent and "worker" share an address space here, so the
               task deep-copies its monitors before observing on them.
``"auto"``     the pooled path (the default).
``"shared"``   retired: the shared-``mmap`` plane backend needed a fork per
               window, saved 19 KB of a 1.8 MB payload and measured slower
               than ``"pickle"``.  The spelling is still accepted and
               resolves to the pooled path, as it always did on hosts
               without ``fork``.

Worker lifetime
---------------
A runner *owns* its worker processes.  The first pooled dispatch starts
them (daemonic, ``fork`` context where available, else the platform
default), each on its own :func:`multiprocessing.Pipe`; every later
``serve_window`` / ``train_cohorts`` of that runner reuses them.  Workers
are stateless between tasks — ``(task, payload)`` in, result out — so no
window can see another's world.  :meth:`ShardedFleetRunner.close` (or
``with``, or dropping the last reference) kills and reaps them; the runner
``serve_fleet`` / ``run_round`` build when no ``shard_runner`` is assigned
is closed before the call returns.  A closed runner restarts its workers
on its next pooled dispatch.

Fault tolerance — never a partial merge
---------------------------------------
Workers can raise, hang or die mid-task.  The runner collects *all* shard
results before any merge, waiting on the result pipes **and** the process
sentinels: a worker that died is seen within milliseconds, one that raised
answers with its failure and is reused, and only a genuine hang pays
``timeout_s``.  Dead and hung workers are killed and replaced by fresh
ones for the retry pass (``retries=``); a shard that still has no result
is re-executed deterministically in-process.  Only when every shard has a
result does the barrier merge run; recovered shards are counted in the
caller's report/result (``FleetServeReport.shard_recoveries`` /
``RoundResult.shard_recoveries``).  If even the in-process re-execution
raises (a genuinely poisoned shard), the exception propagates with the
parent's ledgers, monitors and planes untouched.

Fault injection comes in two spellings (both documented centrally in the
:mod:`repro.faults` package docstring): the env hook
``REPRO_SHARD_FAULT="<shard>:<mode>[:any]"`` with mode ``raise`` /
``hang`` / ``exit`` (one-off debugging; without the ``:any`` scope the
fault only fires inside workers, so in-process recovery succeeds), and
the replayable plan-driven spelling — construct the runner with
``fault_injector=`` and the :class:`~repro.faults.FaultPlan`'s
``shard_faults`` events fire in the matching pooled dispatch's workers.
Both are resolved parent-side at dispatch and travel in the task payload,
so the env hook is read when the window is served, not when a long-lived
worker was forked.  A malformed env hook raises :class:`ValueError`
parent-side, before any shard is dispatched.

``workers=`` resolution order: explicit argument, else the
``REPRO_TEST_WORKERS`` environment variable, else ``os.cpu_count()``.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import os
import time
import weakref
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ShardedFleetRunner", "shard_row_groups", "FAULT_ENV", "WORKERS_ENV"]

FAULT_ENV = "REPRO_SHARD_FAULT"
WORKERS_ENV = "REPRO_TEST_WORKERS"

_BACKENDS = ("auto", "pickle", "shared", "inline")


def shard_row_groups(n_items: int, workers: int) -> List[np.ndarray]:
    """Contiguous, balanced, non-empty index groups over ``range(n_items)``.

    At most ``workers`` groups; sizes differ by at most one, so ragged
    fleets (n not divisible by workers) split without empty shards.
    """
    if n_items <= 0:
        return []
    workers = max(1, int(workers))
    return list(np.array_split(np.arange(n_items), min(workers, n_items)))


def _env_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        return max(0, int(raw)) if raw else 0
    except ValueError:
        return 0


def _env_fault() -> Optional[Tuple[int, str, bool]]:
    """The REPRO_SHARD_FAULT hook as ``(shard, mode, fires in the parent too)``.

    A set but malformed hook raises rather than firing something else: a
    mistyped mode would fail in the worker and read as a recovery, a
    mistyped scope would poison the parent too.
    """
    raw = os.environ.get(FAULT_ENV, "").strip()
    if not raw:
        return None
    parts = raw.split(":")
    if (
        len(parts) not in (2, 3)
        or not parts[0].isdecimal()
        or parts[1] not in ("raise", "hang", "exit")
        or parts[2:] not in ([], ["any"], ["worker"])
    ):
        raise ValueError(f"{FAULT_ENV}={raw!r}; expected '<shard>:<raise|hang|exit>[:<any|worker>]'")
    return int(parts[0]), parts[1], parts[2:] == ["any"]


def _inject_faults(payload: Dict[str, object]) -> None:
    """Fire the faults the parent stamped on this payload (``_attach_faults``).

    Plan faults model *worker* deaths, so they — like the env hook without
    its ``:any`` scope — fire only outside the parent process: the
    deterministic in-process re-execution must succeed, which is exactly
    what makes faulty runs byte-identical to clean ones.
    """
    in_parent = os.getpid() == payload["parent_pid"]
    for mode, in_parent_too in payload.get("faults", ()):  # type: ignore[union-attr]
        if in_parent and not in_parent_too:
            continue
        if mode == "raise":
            raise RuntimeError(f"injected fault in shard {payload['shard_index']}")
        if mode == "hang":
            time.sleep(3600.0)
        elif mode == "exit":
            os._exit(13)
        else:
            raise ValueError(f"unknown shard fault mode {mode!r}")


# ---------------------------------------------------------------------------
# worker task bodies (module-level: picklable under any start method)
# ---------------------------------------------------------------------------


def _serve_shard_task(payload: Dict[str, object]) -> Dict[str, object]:
    """One serving shard: run the batched fleet-window sweep on a sub-world."""
    _inject_faults(payload)
    from repro.core.serving import FleetServeReport, ServingEngine
    from repro.devices.fleet import Fleet

    monitors = payload["monitors"]
    if os.getpid() == payload["parent_pid"]:
        # Inline backend or in-process recovery: these *are* the parent's
        # monitors, and the barrier merge must stay the only thing that
        # touches the parent world.  (A worker's unpickled payload is
        # already a private copy; ledger heads and the sub-store always are.)
        monitors = copy.deepcopy(monitors)
    engine = ServingEngine(
        Fleet.from_state(payload["state"]),
        cost_model=payload["cost_model"],
        models=payload["models"],
        ledgers=payload["ledgers"],
        monitors=monitors,
    )
    model_name: str = payload["model_name"]  # type: ignore[assignment]
    if payload["plan_options"] is not None:
        pipeline, apply_quantization = payload["plan_options"]  # type: ignore[misc]
        engine.compile_model(model_name, pipeline=pipeline, apply_quantization=apply_quantization)
    report = FleetServeReport(model_name=model_name)
    results = engine._serve_fleet_window(
        model_name, dict(payload["items"]), report, bits=payload["bits"]  # type: ignore[arg-type]
    )
    return {
        "shard_index": payload["shard_index"],
        "results": results,
        "ledger_segments": {
            device_id: head.export_segment(0) for device_id, head in engine.ledgers.items()
        },
        "monitors": dict(engine.monitors),
        "state": payload["state"],  # the mutated sub-store
    }


def _train_shard_task(payload: Dict[str, object]):
    """One federated shard: a whole batched cohort trained in lock-step."""
    _inject_faults(payload)
    from repro.federated.engine import train_clients_batched

    return train_clients_batched(payload["model"], payload["clients"])


# ---------------------------------------------------------------------------
# shard workers
# ---------------------------------------------------------------------------


class _Worker(NamedTuple):
    process: mp.process.BaseProcess
    conn: Connection  # the parent's end of the worker's pipe


def _worker_main(conn: Connection, inherited: Sequence[Connection]) -> None:
    """A shard worker: ``(task_fn, payload)`` in, the result dict (``None``
    when the task raised) out, until the parent closes the pipe."""
    for parent_end in inherited:  # fork()ed copies; held open they would mask EOFs
        parent_end.close()
    while True:
        try:
            task_fn, payload = conn.recv()
        except EOFError:
            return
        try:
            result = task_fn(payload)
        except Exception:
            result = None  # the parent's in-process re-execution surfaces it
        conn.send(result)
        del task_fn, payload, result  # hold nothing between tasks


def _reap(workers: List[_Worker]) -> None:
    """Kill and join ``workers`` (stateless, so there is nothing to flush)."""
    while workers:
        process, conn = workers.pop()
        process.kill()
        process.join()
        process.close()
        conn.close()


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class ShardedFleetRunner:
    """Partition fleet work across processes; merge byte-identically.

    Parameters
    ----------
    workers:
        Worker count; ``None``/0 resolves ``REPRO_TEST_WORKERS`` then
        ``os.cpu_count()``.  The effective count is capped by the number of
        shardable items.
    backend:
        ``"inline"`` runs every shard in-process; ``"auto"`` / ``"pickle"``
        / ``"shared"`` all mean the pooled path (module docstring).  Read
        at each dispatch, so it may be reassigned between windows.
    timeout_s:
        Per-pass deadline for collecting worker results; a shard whose
        worker is still silent by then (hung) is recovered.  A worker that
        *died* is detected at once and never waits this out.
    retries:
        How many retry passes (on fresh workers where the old ones died or
        hung) failed shards get before the deterministic in-process
        fallback (0 goes straight to in-process).
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`; each pooled
        dispatch draws its plan-scheduled worker faults and ships them in
        the task payloads (fires in workers only — recovery keeps results
        byte-identical, so fault-plan runs merge the same bytes).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        backend: str = "auto",
        timeout_s: float = 60.0,
        retries: int = 1,
        fault_injector=None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
        self.workers = workers
        self.backend = backend
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.fault_injector = fault_injector
        # Started by the first pooled dispatch, reused by every later one.
        self._workers: List[_Worker] = []
        weakref.finalize(self, _reap, self._workers)

    # -- worker lifetime -------------------------------------------------
    def close(self) -> None:
        """Kill and reap this runner's worker processes (idempotent)."""
        _reap(self._workers)

    def __enter__(self) -> "ShardedFleetRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _retire(self, worker: _Worker) -> None:
        self._workers.remove(worker)
        _reap([worker])

    def _live_workers(self, count: int) -> List[_Worker]:
        """``count`` idle workers, replacing the dead and starting the missing."""
        for worker in [w for w in self._workers if not w.process.is_alive()]:
            self._retire(worker)
        while len(self._workers) < count:
            ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
            parent_end, child_end = ctx.Pipe()
            inherited = [w.conn for w in self._workers] + [parent_end]
            process = ctx.Process(target=_worker_main, args=(child_end, inherited), daemon=True)
            process.start()
            child_end.close()  # the worker's death must read as EOF here
            self._workers.append(_Worker(process, parent_end))
        return self._workers[:count]

    def _attach_faults(self, scope: str, payloads: Sequence[Dict[str, object]]) -> None:
        """Stamp each payload with the faults it must fire: ``(mode, fires in
        the parent process too)`` for its plan-scheduled worker fault and for
        the env hook, both resolved here, parent-side, at dispatch."""
        inj = self.fault_injector
        dispatch = inj.next_dispatch(scope) if inj is not None else None
        env = _env_fault()
        for payload in payloads:
            shard_index: int = payload["shard_index"]  # type: ignore[assignment]
            faults = []
            if inj is not None:
                planned = inj.shard_fault(scope, dispatch, shard_index)
                if planned is not None:
                    faults.append((planned, False))
            if env is not None and env[0] == shard_index:
                faults.append(env[1:])
            if faults:
                payload["faults"] = faults

    # -- resolution ------------------------------------------------------
    def resolve_workers(self, n_items: int) -> int:
        workers = self.workers
        if not workers or workers <= 0:
            workers = _env_workers() or os.cpu_count() or 1
        return max(1, min(int(workers), max(n_items, 1)))

    # -- generic dispatch ------------------------------------------------
    def _dispatch(
        self,
        indices: Sequence[int],
        payloads: Sequence[Dict[str, object]],
        task_fn: Callable[[Dict[str, object]], Dict[str, object]],
        results: List[Optional[Dict[str, object]]],
    ) -> List[int]:
        """One pass of ``indices`` over the workers; fills ``results`` and
        returns the shards still without one.

        A worker gets its next payload when its previous result is in.  The
        wait covers result pipes and process sentinels, so a death ends the
        wait at once; workers still silent at the pass deadline are hung.
        Dead and hung workers are retired (the next pass starts fresh ones);
        a worker that answered — with a result or a failure — is reused.
        """
        idle = self._live_workers(self.resolve_workers(len(indices)))
        queue = deque(indices)
        busy: Dict[_Worker, int] = {}
        failed: List[int] = []
        deadline = time.monotonic() + self.timeout_s
        try:
            while True:
                while queue and idle:
                    worker, i = idle.pop(), queue.popleft()
                    try:
                        worker.conn.send((task_fn, payloads[i]))
                    except OSError:  # died since _live_workers looked
                        self._retire(worker)
                        failed.append(i)
                    else:
                        busy[worker] = i
                if not busy:
                    break  # all answered, or no worker left to take the queue
                ready = wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy],
                    timeout=max(0.0, deadline - time.monotonic()),
                )
                if not ready:
                    break  # hung: ``finally`` retires whoever is still busy
                for worker in [w for w in busy if w.conn in ready or w.process.sentinel in ready]:
                    i = busy.pop(worker)
                    result = None
                    answered = worker.conn in ready
                    if answered:
                        try:
                            result = worker.conn.recv()
                        except (EOFError, OSError):  # died mid-task: the pipe read EOF
                            answered = False
                    if answered:
                        idle.append(worker)
                    else:
                        self._retire(worker)
                    if result is None:
                        failed.append(i)
                    else:
                        results[i] = result
        finally:
            for worker, i in busy.items():
                self._retire(worker)
                failed.append(i)
        return sorted(failed + list(queue))

    def _run_shards(
        self,
        payloads: Sequence[Dict[str, object]],
        task_fn: Callable[[Dict[str, object]], Dict[str, object]],
        pooled: bool,
    ) -> Tuple[List[Dict[str, object]], Tuple[int, ...]]:
        """Run one payload per shard; return (results in shard order, recovered).

        All shards produce a result before this returns — worker failures
        (exceptions, hangs, deaths) drain through one retry pass per
        ``retries`` and finally the deterministic in-process fallback.  An
        in-process failure propagates, leaving the caller's world unmerged.
        """
        n = len(payloads)
        if not pooled or n < 2:
            return [task_fn(p) for p in payloads], ()

        results: List[Optional[Dict[str, object]]] = [None] * n
        failed = list(range(n))
        recovered: List[int] = []
        for attempt in range(1 + max(0, self.retries)):
            if not failed:
                break
            still = self._dispatch(failed, payloads, task_fn, results)
            if attempt > 0:
                recovered.extend(i for i in failed if i not in still)
            failed = still
        for i in failed:
            results[i] = task_fn(payloads[i])  # in-process; raises propagate
        recovered.extend(failed)
        return results, tuple(sorted(recovered))  # type: ignore[return-value]

    # -- serving ---------------------------------------------------------
    def serve_window(
        self,
        engine,
        model_name: str,
        window: Mapping[str, np.ndarray],
        report,
        bits: int = 32,
    ) -> None:
        """Serve one fleet window sharded; merge into ``report`` and the world.

        Byte-identical to ``engine._serve_fleet_window`` on the same window:
        per-device results land in window order, ledgers extend by the same
        entries, monitors observe the same slices, planes end in the same
        state.  Degenerate cases (single worker, <2 window devices, a
        compiled plan whose lowering options were not recorded) fall back to
        the single-process sweep directly.
        """
        items: List[Tuple[str, np.ndarray]] = []
        for device_id, x in window.items():
            x = np.asarray(x)
            if x.shape[0]:
                items.append((device_id, x))
        if not items:
            return
        n = len(items)
        workers = self.resolve_workers(n)
        # A plan installed without recorded lowering options cannot be
        # recompiled identically in a worker; serve it in-process.
        plan_unreplayable = model_name in engine.plans and model_name not in engine._plan_options
        if workers < 2 or n < 2 or plan_unreplayable:
            engine._serve_fleet_window(model_name, dict(items), report, bits=bits)
            return

        state = engine.fleet.state
        model = engine.models[model_name]
        # The recorded lowering recipe may hold a caller's own PassPipeline;
        # shards (which re-run it, some of them in this process) get a copy.
        plan_options = None
        if model_name in engine.plans:
            plan_options = copy.deepcopy(engine._plan_options.get(model_name))
        groups = shard_row_groups(n, workers)
        payloads: List[Dict[str, object]] = []
        shard_rows: List[np.ndarray] = []
        for shard_index, group in enumerate(groups):
            ids = [items[k][0] for k in group]
            rows = engine.fleet.rows_for(ids)
            shard_rows.append(rows)
            payloads.append(
                {
                    "shard_index": shard_index,
                    "parent_pid": os.getpid(),
                    "model_name": model_name,
                    "bits": bits,
                    "items": [items[k] for k in group],
                    "cost_model": engine.cost_model,
                    "models": {model_name: model},
                    "plan_options": plan_options,
                    # Chain heads, not histories: what travels is O(window),
                    # not O(everything the fleet ever metered).
                    "ledgers": {
                        d: engine.ledgers[d].fork_head() for d in ids if d in engine.ledgers
                    },
                    # The parent's own objects: pickling (or the task's deep
                    # copy when it runs in this process) isolates them.
                    "monitors": {d: engine.monitors[d] for d in ids if d in engine.monitors},
                    "state": state.extract_rows(rows),
                }
            )
        self._attach_faults("serve", payloads)
        task_results, recovered = self._run_shards(
            payloads, _serve_shard_task, pooled=self.backend != "inline"
        )

        # Barrier merge, in shard (= canonical window) order.  Nothing above
        # touched the parent world, so a raise before this point is clean.
        for shard_index, task_result in enumerate(task_results):
            state.merge_rows(task_result["state"], shard_rows[shard_index])
            for device_id, segment in task_result["ledger_segments"].items():  # type: ignore[union-attr]
                if segment:
                    engine.ledgers[device_id].append_segment(segment)
            for device_id, monitor in task_result["monitors"].items():  # type: ignore[union-attr]
                engine.monitors[device_id] = monitor
            for result in task_result["results"]:  # type: ignore[union-attr]
                report.add(result)
        report.shard_recoveries += len(recovered)

    # -- federated -------------------------------------------------------
    def train_cohorts(self, model, cohorts: Sequence[Sequence[object]]) -> Tuple[List[tuple], int]:
        """The sharded collect kernel of ``FederatedEngine.run_round``: one
        ``train_clients_batched`` sweep per cohort of clients, each cohort
        whole in one worker (so the stacked-tensor geometry — and therefore
        every float — matches the in-process sweep).  Returns the kernel's
        ``(deltas, losses, accs)`` per cohort, in cohort order, and how many
        shards were recovered after a worker fault.
        """
        payloads = [
            {"shard_index": i, "parent_pid": os.getpid(), "model": model, "clients": list(clients)}
            for i, clients in enumerate(cohorts)
        ]
        self._attach_faults("train", payloads)
        pooled = self.backend != "inline" and self.resolve_workers(len(payloads)) >= 2
        trained, recovered = self._run_shards(payloads, _train_shard_task, pooled=pooled)
        return trained, len(recovered)
