"""Chaos differential suite: system invariants under seeded fault plans.

For a matrix of fault-plan seeds (override with ``REPRO_CHAOS_SEEDS``,
comma-separated) this suite asserts the transactional guarantees of the
fault plane:

* ledger MAC chains verify after every faulty run;
* billing is exact — quota is metered per admission, partitioned queries
  are never billed, and with healthy batteries billed == served;
* the empty fault plan is byte-identical to running without an injector
  at all, on every engine path;
* a faulty run is byte-identical across ``engine="batched" | "oracle" |
  "sharded"``;
* a quorum abort leaves weights, client state, fleet planes and ledgers
  byte-untouched.
"""

import os
import pickle

import numpy as np
import pytest

from _sharded_worlds import federated_world, serving_snapshot, serving_world
from repro.devices import Fleet
from repro.faults import FaultInjector, FaultPlan, FaultRates
from repro.runtime.sharded import ShardedFleetRunner

SEEDS = [
    int(s) for s in os.environ.get("REPRO_CHAOS_SEEDS", "").split(",") if s.strip()
] or list(range(8))

N_DEVICES = 12
N_WINDOWS = 4
N_CLIENTS = 10
N_ROUNDS = 3

SERVE_RATES = FaultRates(partition=0.25, device_crash=0.0, uplink_loss=0.0,
                         uplink_corrupt=0.0, uplink_duplicate=0.0)
FED_RATES = FaultRates(partition=0.0, device_crash=0.15, uplink_loss=0.25,
                       uplink_corrupt=0.1, uplink_duplicate=0.2)


def _windows(seed, device_ids):
    rng = np.random.default_rng(seed + 1000)
    return [
        {d: rng.normal(size=(int(rng.integers(0, 9)), 8)) for d in device_ids}
        for _ in range(N_WINDOWS)
    ]


def _serve_plan(seed):
    return FaultPlan.generate(
        seed,
        device_ids=[f"dev-{i:04d}" for i in range(N_DEVICES)],
        n_windows=N_WINDOWS,
        rates=SERVE_RATES,
    )


def _fed_plan(seed):
    return FaultPlan.generate(
        seed,
        client_ids=[f"c{i}" for i in range(N_CLIENTS)],
        n_rounds=N_ROUNDS,
        rates=FED_RATES,
    )


def _serving_chaos_run(seed, plan, engine="batched", plugged=False, **runner_kwargs):
    world, _ = serving_world(seed, N_DEVICES)
    device_ids = [d.device_id for d in world.fleet]
    if plugged:
        world.fleet.state.plugged_in[:] = True
    world.fault_injector = FaultInjector(plan)
    if engine == "sharded":
        world.shard_runner = ShardedFleetRunner(backend="inline", **runner_kwargs)
    report = world.serve_fleet("m", _windows(seed, device_ids), engine=engine)
    return world, report


# -- serving invariants ---------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_chains_verify_under_faults(seed):
    world, report = _serving_chaos_run(seed, _serve_plan(seed))
    assert report.n_windows == N_WINDOWS
    for ledger in world.ledgers.values():
        assert ledger.verify_chain()


@pytest.mark.parametrize("seed", SEEDS)
def test_billing_is_exact_under_partitions(seed):
    """Quota admissions are billed; partitioned queries never are."""
    world, report = _serving_chaos_run(seed, _serve_plan(seed))
    per_device = report.per_device
    for device_id, stats in per_device.items():
        assert stats["requested"] == (
            stats["served"] + stats["denied_quota"]
            + stats["battery_failures"] + stats["network_failures"]
        )
        if device_id in world.ledgers:
            # Metering happens at admission: billed == served + the
            # battery failures that were admitted first.
            assert world.ledgers[device_id].used() == (
                stats["served"] + stats["battery_failures"]
            )
        else:
            # Devices without a ledger are not metered at all.
            assert stats["denied_quota"] == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_billing_equals_served_exactly_when_batteries_hold(seed):
    world, report = _serving_chaos_run(seed, _serve_plan(seed), plugged=True)
    assert report.battery_failures == 0
    per_device = report.per_device
    for device_id, ledger in world.ledgers.items():
        assert ledger.used() == per_device[device_id]["served"]


@pytest.mark.parametrize("seed", SEEDS)
def test_network_failures_match_the_plan_exactly(seed):
    plan = _serve_plan(seed)
    world, report = _serving_chaos_run(seed, plan)
    device_ids = [d.device_id for d in world.fleet]
    windows = _windows(seed, device_ids)
    expected = sum(
        windows[w][d].shape[0] for w, d in plan.serve_offline if w < len(windows)
    )
    assert report.network_failures == expected
    if expected:
        assert report.requested > report.served


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine", ["oracle", "sharded"])
def test_faulty_run_is_identical_across_engines(seed, engine):
    plan = _serve_plan(seed)
    ref_world, ref_report = _serving_chaos_run(seed, plan, engine="batched")
    world, report = _serving_chaos_run(seed, plan, engine=engine)
    assert serving_snapshot(world) == serving_snapshot(ref_world)
    assert report.as_dict() == ref_report.as_dict()


@pytest.mark.parametrize("seed", SEEDS)
def test_empty_plan_serving_is_byte_identical_to_no_injector(seed):
    device_ids = [f"dev-{i:04d}" for i in range(N_DEVICES)]
    for engine in ("batched", "oracle", "sharded"):
        bare, _ = serving_world(seed, N_DEVICES)
        if engine == "sharded":
            bare.shard_runner = ShardedFleetRunner(backend="inline")
        bare_report = bare.serve_fleet("m", _windows(seed, device_ids), engine=engine)
        world, report = _serving_chaos_run(seed, FaultPlan.empty(seed), engine=engine)
        assert serving_snapshot(world) == serving_snapshot(bare)
        assert report.as_dict() == bare_report.as_dict()


# -- federated invariants -------------------------------------------------


def _federated_chaos_run(seed, plan, engine="batched", **engine_kwargs):
    fed = federated_world(seed, N_CLIENTS)
    fed.fault_injector = FaultInjector(plan)
    for key, value in engine_kwargs.items():
        setattr(fed, key, value)
    results = [fed.run_round(r, engine=engine) for r in range(N_ROUNDS)]
    return fed, results


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine", ["oracle", "sharded"])
def test_faulty_rounds_are_identical_across_engines(seed, engine):
    plan = _fed_plan(seed)
    ref, ref_results = _federated_chaos_run(seed, plan, engine="batched")
    fed, results = _federated_chaos_run(seed, plan, engine=engine)
    assert [r.as_dict() for r in results] == [r.as_dict() for r in ref_results]
    assert (
        fed.global_model.get_flat_weights().tobytes()
        == ref.global_model.get_flat_weights().tobytes()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_faulty_rounds_surface_degradation_telemetry(seed):
    plan = _fed_plan(seed)
    _, results = _federated_chaos_run(seed, plan)
    crashes = {r for r, _ in plan.crashes}
    for result in results:
        if result.round_index in crashes:
            assert result.n_crashes >= 1
    assert sum(r.n_retransmits for r in results) >= 0
    totals = sum(r.n_crashes + r.n_delivery_failures + r.n_duplicates for r in results)
    if not plan.is_empty:
        assert totals >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_empty_plan_federated_is_byte_identical_to_no_injector(seed):
    for engine in ("batched", "oracle"):
        bare = federated_world(seed, N_CLIENTS)
        bare_results = [bare.run_round(r, engine=engine) for r in range(N_ROUNDS)]
        fed, results = _federated_chaos_run(seed, FaultPlan.empty(seed), engine=engine)
        assert [r.as_dict() for r in results] == [r.as_dict() for r in bare_results]
        assert (
            fed.global_model.get_flat_weights().tobytes()
            == bare.global_model.get_flat_weights().tobytes()
        )


# -- quorum commit --------------------------------------------------------


def _blackout_plan(round_index, client_ids):
    """Every client's link is down for one whole round."""
    down = ("lost",) * FaultRates().max_attempt_draws
    return FaultPlan(
        seed=0, deliveries=tuple((round_index, cid, down) for cid in client_ids)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_quorum_abort_leaves_the_world_byte_untouched(seed):
    client_ids = [f"c{i}" for i in range(N_CLIENTS)]
    fed = federated_world(seed, N_CLIENTS)
    fed.fleet = Fleet.random(N_CLIENTS, seed=seed + 50)
    fed.device_map = {
        cid: dev.device_id for cid, dev in zip(client_ids, fed.fleet)
    }
    fed.fault_injector = FaultInjector(_blackout_plan(0, client_ids))
    fed.quorum = 0.5

    weights_before = fed.global_model.get_flat_weights().tobytes()
    clients_before = {cid: pickle.dumps(c) for cid, c in fed.clients.items()}
    level_before = fed.fleet.state.level_j.tobytes()

    result = fed.run_round(0)
    assert result.aborted
    assert "quorum not met" in result.abort_reason
    assert result.participants == []
    assert result.uplink_bytes == 0 and result.downlink_bytes == 0
    assert result.quorum_required >= 1
    assert result.quorum_shortfall == result.quorum_required
    assert result.n_delivery_failures == N_CLIENTS

    assert fed.global_model.get_flat_weights().tobytes() == weights_before
    assert {cid: pickle.dumps(c) for cid, c in fed.clients.items()} == clients_before
    assert fed.fleet.state.level_j.tobytes() == level_before

    # The next round (links restored) commits normally.
    follow_up = fed.run_round(1)
    assert not follow_up.aborted and follow_up.participants


def test_quorum_met_commits_despite_partial_failures():
    client_ids = [f"c{i}" for i in range(N_CLIENTS)]
    down = ("lost",) * FaultRates().max_attempt_draws
    plan = FaultPlan(seed=0, deliveries=((0, client_ids[0], down),))
    fed = federated_world(0, N_CLIENTS)
    fed.fault_injector = FaultInjector(plan)
    fed.quorum = 0.5
    result = fed.run_round(0)
    assert not result.aborted
    assert result.n_delivery_failures == 1
    assert client_ids[0] not in result.participants
    assert result.quorum_required == 5


def test_quorum_validation():
    fed = federated_world(0, 4)
    with pytest.raises(ValueError):
        type(fed)(fed.global_model, list(fed.clients.values()), quorum=0.0)
    with pytest.raises(ValueError):
        type(fed)(fed.global_model, list(fed.clients.values()), quorum=1.5)


# -- plan-driven shard worker faults --------------------------------------


def test_plan_driven_worker_faults_recover_byte_identically():
    """A plan that kills pool workers still merges the exact bytes."""
    plan = FaultPlan(
        seed=0,
        shard_faults=(("train", 0, 0, "raise"), ("train", 1, 1, "exit")),
    )
    ref = federated_world(3, N_CLIENTS)
    ref_results = [ref.run_round(r) for r in range(2)]

    fed = federated_world(3, N_CLIENTS)
    inj = FaultInjector(plan)
    fed.fault_injector = inj
    fed.shard_runner = ShardedFleetRunner(
        workers=2,
        backend="pickle",
        timeout_s=30.0,
        fault_injector=inj,
        retries=1,
    )
    results = [fed.run_round(r, engine="sharded") for r in range(2)]

    assert (
        fed.global_model.get_flat_weights().tobytes()
        == ref.global_model.get_flat_weights().tobytes()
    )
    for got, want in zip(results, ref_results):
        got_d, want_d = got.as_dict(), want.as_dict()
        recoveries = got_d.pop("shard_recoveries")
        want_d.pop("shard_recoveries")
        assert got_d == want_d
    assert sum(r.shard_recoveries for r in results) >= 1
