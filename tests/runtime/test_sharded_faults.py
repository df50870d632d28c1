"""Fault-injection suite for the sharded backend's recovery machinery.

The contract: a worker that raises, hangs or dies mid-task never produces a
partial merge.  The runner retries the shard (on a fresh worker where the
old one died or hung) and finally re-executes it deterministically
in-process; only when *every* shard has a
result does the barrier merge run, and the recovery is flagged
(``FleetServeReport.shard_recoveries`` / ``RoundResult.shard_recoveries``)
while staying byte-identical to a fault-free batched run.  A genuinely
poisoned shard (fails even in-process) propagates its exception with the
parent's ledgers, planes and monitors untouched.

Faults are injected via the ``REPRO_SHARD_FAULT`` env var (resolved by the
parent at each dispatch and shipped in the task payload):
``"<shard>:<mode>[:<scope>]"`` with mode ``raise`` / ``hang`` / ``exit``.
The default ``worker`` scope only fires in worker processes, so the
in-process fallback recovers; scope ``any`` poisons the in-process retry
too.  A *death* is detected from the worker's pipe and process sentinel,
not waited out: only ``hang`` pays ``timeout_s``.
"""

from __future__ import annotations

import gc
import multiprocessing
import time

import numpy as np
import pytest

from repro.runtime.sharded import FAULT_ENV, ShardedFleetRunner

from _sharded_worlds import (
    federated_world as _federated_world,
    run_rounds as _run_rounds,
    serving_snapshot as _serving_snapshot,
    serving_world as _serving_world,
)

FAULT_MODES = ("raise", "hang", "exit")


def _fault_runner(backend="pickle"):
    # Short timeout keeps the hang tests fast; retries=0 goes straight from
    # the failed pool pass to the deterministic in-process fallback.
    return ShardedFleetRunner(workers=3, backend=backend, timeout_s=4.0, retries=0)


@pytest.mark.parametrize("mode", FAULT_MODES)
def test_serving_recovers_from_worker_fault(mode, monkeypatch):
    base, window = _serving_world(seed=7, n_devices=12)
    report_base = base.serve_fleet("m", window)
    snap_base = _serving_snapshot(base)

    sharded, window_s = _serving_world(seed=7, n_devices=12)
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, f"1:{mode}")
    report_sharded = sharded.serve_fleet("m", window_s, engine="sharded")

    assert report_sharded.shard_recoveries > 0  # the recovery is flagged...
    stripped = report_sharded.as_dict()
    stripped["shard_recoveries"] = 0
    assert stripped == report_base.as_dict()  # ...and nothing else differs
    assert _serving_snapshot(sharded) == snap_base


def test_serving_poisoned_shard_never_merges_partially(monkeypatch):
    """Scope ``any`` poisons the in-process retry too: the call raises and
    the parent world (ledgers, planes, monitors) is exactly untouched."""
    sharded, window = _serving_world(seed=23, n_devices=12)
    snap_before = _serving_snapshot(sharded)
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, "1:raise:any")
    with pytest.raises(RuntimeError, match="injected fault"):
        sharded.serve_fleet("m", window, engine="sharded")
    assert _serving_snapshot(sharded) == snap_before


def test_serving_retry_pass_recovers_transient_fault(monkeypatch):
    """With retries=1 a shard that only fails in workers is re-run on one;
    because the env fault is persistent here the retry also fails and the
    in-process fallback finishes the job — both paths count as one
    recovery."""
    base, window = _serving_world(seed=31, n_devices=12)
    report_base = base.serve_fleet("m", window)

    sharded, window_s = _serving_world(seed=31, n_devices=12)
    sharded.shard_runner = ShardedFleetRunner(workers=3, backend="pickle", timeout_s=4.0, retries=1)
    monkeypatch.setenv(FAULT_ENV, "2:raise")
    report_sharded = sharded.serve_fleet("m", window_s, engine="sharded")
    assert report_sharded.shard_recoveries == 1
    assert report_sharded.served == report_base.served


@pytest.mark.parametrize("mode", FAULT_MODES)
def test_federated_recovers_from_worker_fault(mode, monkeypatch):
    base = _federated_world(seed=9, n_clients=12)
    results_base = _run_rounds(base, 1)

    sharded = _federated_world(seed=9, n_clients=12)
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, f"1:{mode}")
    results_sharded = _run_rounds(sharded, 1, engine="sharded")

    assert results_sharded[0].shard_recoveries > 0
    assert (
        sharded.global_model.get_flat_weights().tobytes()
        == base.global_model.get_flat_weights().tobytes()
    )
    stripped = results_sharded[0].as_dict()
    stripped["shard_recoveries"] = 0
    assert stripped == results_base[0].as_dict()


def test_federated_poisoned_cohort_propagates_without_update(monkeypatch):
    sharded = _federated_world(seed=13, n_clients=12)
    weights_before = sharded.global_model.get_flat_weights().tobytes()
    sharded.shard_runner = _fault_runner()
    monkeypatch.setenv(FAULT_ENV, "0:raise:any")
    with pytest.raises(RuntimeError, match="injected fault"):
        sharded.run_round(0, engine="sharded")
    # The round never reached aggregation: global weights are untouched.
    assert sharded.global_model.get_flat_weights().tobytes() == weights_before
    assert sharded.history == []


# -- death is detected, not waited out -------------------------------------


def test_serving_worker_death_is_detected_not_waited_out(monkeypatch):
    """``exit`` kills the worker mid-task; with a 30 s timeout the recovery
    must still finish in well under a second (pipe EOF + sentinel)."""
    base, window = _serving_world(seed=7, n_devices=12)
    base.serve_fleet("m", window)

    sharded, window_s = _serving_world(seed=7, n_devices=12)
    with ShardedFleetRunner(workers=3, backend="pickle", timeout_s=30.0, retries=1) as runner:
        sharded.shard_runner = runner
        monkeypatch.setenv(FAULT_ENV, "1:exit")
        start = time.monotonic()
        report = sharded.serve_fleet("m", window_s, engine="sharded")
        elapsed = time.monotonic() - start
    assert report.shard_recoveries == 1  # pass 0 died, the fresh worker died, in-process finished
    assert elapsed < 1.0
    assert _serving_snapshot(sharded) == _serving_snapshot(base)


def test_federated_worker_death_is_detected_not_waited_out(monkeypatch):
    base = _federated_world(seed=9, n_clients=12)
    _run_rounds(base, 1)

    sharded = _federated_world(seed=9, n_clients=12)
    with ShardedFleetRunner(workers=3, backend="pickle", timeout_s=30.0, retries=1) as runner:
        sharded.shard_runner = runner
        monkeypatch.setenv(FAULT_ENV, "1:exit")
        start = time.monotonic()
        results = _run_rounds(sharded, 1, engine="sharded")
        elapsed = time.monotonic() - start
    assert results[0].shard_recoveries == 1
    assert elapsed < 1.0
    assert (
        sharded.global_model.get_flat_weights().tobytes()
        == base.global_model.get_flat_weights().tobytes()
    )


def test_raising_worker_is_reused_dead_worker_is_replaced(monkeypatch):
    sharded, window = _serving_world(seed=7, n_devices=12)
    with ShardedFleetRunner(workers=3, backend="pickle", timeout_s=30.0, retries=0) as runner:
        sharded.shard_runner = runner
        sharded.serve_fleet("m", window, engine="sharded")
        pids = sorted(w.process.pid for w in runner._workers)
        monkeypatch.setenv(FAULT_ENV, "1:raise")
        sharded.serve_fleet("m", window, engine="sharded")
        assert sorted(w.process.pid for w in runner._workers) == pids  # merely raised: reused
        monkeypatch.setenv(FAULT_ENV, "1:exit")
        sharded.serve_fleet("m", window, engine="sharded")
        monkeypatch.delenv(FAULT_ENV)
        report = sharded.serve_fleet("m", window, engine="sharded")
        assert report.shard_recoveries == 0
        after = sorted(w.process.pid for w in runner._workers)
    assert len(after) == 3 and len(set(after) & set(pids)) == 2  # one died, one fresh


# -- the env hook is read at dispatch, not at fork --------------------------


def test_env_fault_set_after_workers_started_still_fires(monkeypatch):
    """Persistent workers froze ``os.environ`` when they were forked; the
    hook must be resolved by the parent at dispatch to reach them."""
    base, window = _serving_world(seed=7, n_devices=12)
    for _ in range(2):
        base.serve_fleet("m", window)

    sharded, window_s = _serving_world(seed=7, n_devices=12)
    with _fault_runner() as runner:
        sharded.shard_runner = runner
        first = sharded.serve_fleet("m", window_s, engine="sharded")
        assert first.shard_recoveries == 0 and runner._workers
        monkeypatch.setenv(FAULT_ENV, "1:raise")
        second = sharded.serve_fleet("m", window_s, engine="sharded")
        assert second.shard_recoveries == 1
        monkeypatch.delenv(FAULT_ENV)
        third = sharded.serve_fleet("m", window_s, engine="sharded")
        assert third.shard_recoveries == 0
    base.serve_fleet("m", window)
    assert _serving_snapshot(sharded) == _serving_snapshot(base)


@pytest.mark.parametrize(
    "value", ["0:hnag", "0:raise:anyy", "x:raise", "0", "0:raise:any:1", "-1:raise"]
)
def test_malformed_env_fault_raises_before_dispatch(value, monkeypatch):
    """A typo must not read as a recovery (bad mode) or as ``any`` (bad
    scope): the parent refuses it before any worker starts."""
    engine, window = _serving_world(seed=7, n_devices=12)
    snap_before = _serving_snapshot(engine)
    monkeypatch.setenv(FAULT_ENV, value)
    with _fault_runner() as runner:
        engine.shard_runner = runner
        with pytest.raises(ValueError, match=f"{FAULT_ENV}=.*<shard>:<raise\\|hang\\|exit>"):
            engine.serve_fleet("m", window, engine="sharded")
        assert runner._workers == []
    assert _serving_snapshot(engine) == snap_before


# -- the non-fork start path -------------------------------------------------


def test_spawn_started_workers_train_byte_identically(monkeypatch):
    """Workers use ``fork`` where available, else the platform default; a
    ``spawn`` context (macOS, Windows) must give the same bytes."""
    import repro.runtime.sharded as sharded
    from repro.federated.engine import partition_cohorts, train_clients_batched

    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(sharded.mp, "get_context", lambda method=None: spawn)
    fed = _federated_world(seed=0, n_clients=12)
    model, clients = fed.global_model, list(fed.clients.values())
    cohorts = [[clients[i] for i in c.indices] for c in partition_cohorts(model, clients) if c.batched]
    assert len(cohorts) == 6
    expected = [train_clients_batched(model, cohort) for cohort in cohorts]
    with ShardedFleetRunner(workers=2, backend="pickle") as runner:
        trained, recovered = runner.train_cohorts(model, cohorts)
        assert {type(w.process) for w in runner._workers} == {spawn.Process}
    assert recovered == 0
    for got, want in zip(trained, expected):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# -- no orphans --------------------------------------------------------------


def _children():
    return {p.pid for p in multiprocessing.active_children()}


def _started_runner():
    """A runner that has served one sharded window, and its worker pids."""
    engine, window = _serving_world(seed=7, n_devices=12)
    engine.shard_runner = runner = _fault_runner()
    engine.serve_fleet("m", window, engine="sharded")
    pids = {w.process.pid for w in runner._workers}
    assert len(pids) == 3 and pids <= _children()
    return engine, window, runner, pids


def test_close_and_with_reap_the_workers():
    _, _, runner, pids = _started_runner()
    runner.close()
    assert not pids & _children()
    runner.close()  # idempotent

    engine, window, runner, pids = _started_runner()
    with runner:
        engine.serve_fleet("m", window, engine="sharded")
        assert pids <= _children()  # reused, not restarted
    assert not pids & _children()


def test_poisoned_shard_leaves_no_orphans(monkeypatch):
    """The exception of a shard that fails even in-process propagates out of
    a call that built its own runner — which must still be closed."""
    before = _children()
    monkeypatch.setenv(FAULT_ENV, "1:raise:any")
    engine, window = _serving_world(seed=23, n_devices=12)
    with pytest.raises(RuntimeError, match="injected fault"):
        engine.serve_fleet("m", window, engine="sharded", workers=3)
    fed = _federated_world(seed=13, n_clients=12)
    with pytest.raises(RuntimeError, match="injected fault"):
        fed.run_round(0, engine="sharded", workers=3)
    assert _children() == before


def test_implicit_runner_is_closed_before_the_call_returns():
    before = _children()
    engine, window = _serving_world(seed=13, n_devices=9)
    engine.serve_fleet("m", window, engine="sharded", workers=2)
    assert _children() == before
    fed = _federated_world(seed=9, n_clients=12)
    fed.run_round(0, engine="sharded", workers=2)
    assert _children() == before


def test_dropping_an_unclosed_runner_reaps_its_workers():
    engine, _, runner, pids = _started_runner()
    engine.shard_runner = None
    del runner
    gc.collect()
    assert not pids & _children()
