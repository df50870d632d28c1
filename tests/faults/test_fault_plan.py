"""Unit tests for the fault plane primitives: plans, injector, retries."""

import math

import numpy as np
import pytest

from repro.faults import (
    DeliveryResult,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRates,
    RetryPolicy,
    simulate_delivery,
)

DEVICES = [f"d{i}" for i in range(6)]
CLIENTS = [f"c{i}" for i in range(8)]


def _plan(seed=3, **rate_overrides):
    rates = FaultRates(
        partition=0.2,
        device_crash=0.15,
        uplink_loss=0.25,
        uplink_corrupt=0.1,
        uplink_duplicate=0.2,
        worker_fault=0.1,
        round_interrupt=0.3,
        **rate_overrides,
    )
    return FaultPlan.generate(
        seed, device_ids=DEVICES, client_ids=CLIENTS, n_windows=5, n_rounds=4, rates=rates
    )


# -- FaultPlan ------------------------------------------------------------


def test_generate_is_deterministic():
    a, b = _plan(seed=11), _plan(seed=11)
    assert a == b
    assert a.digest() == b.digest()


def test_different_seeds_differ():
    assert _plan(seed=1) != _plan(seed=2)
    assert _plan(seed=1).digest() != _plan(seed=2).digest()


def test_generate_populates_every_table():
    plan = _plan()
    assert plan.serve_offline and plan.crashes and plan.deliveries
    assert plan.shard_faults and plan.interrupts
    assert not plan.is_empty


def test_json_roundtrip_preserves_digest():
    plan = _plan(seed=7)
    restored = FaultPlan.from_json(plan.to_json())
    assert restored.digest() == plan.digest()
    assert restored.serve_offline == plan.serve_offline
    assert restored.deliveries == plan.deliveries
    assert restored.shard_faults == plan.shard_faults


def test_empty_plan():
    plan = FaultPlan.empty(seed=5)
    assert plan.is_empty
    assert plan.seed == 5
    # Content address ignores the rates object: empty is empty.
    assert FaultPlan.empty(seed=5).digest() == plan.digest()


def test_crashed_clients_never_schedule_deliveries():
    plan = _plan()
    crashed = set(plan.crashes)
    for r, cid, _ in plan.deliveries:
        assert (r, cid) not in crashed


def test_delivery_sequences_bounded_by_max_attempt_draws():
    plan = _plan()
    for _, _, outcomes in plan.deliveries:
        assert 1 <= len(outcomes) <= plan.rates.max_attempt_draws
        # Only the last outcome can be a success code.
        for o in outcomes[:-1]:
            assert o in (FaultKind.DELIVERY_LOST, FaultKind.DELIVERY_CORRUPT)


def test_rates_validation():
    with pytest.raises(ValueError):
        FaultRates(partition=1.5)
    with pytest.raises(ValueError):
        FaultRates(uplink_loss=0.7, uplink_corrupt=0.6)
    with pytest.raises(ValueError):
        FaultRates(max_attempt_draws=0)
    with pytest.raises(ValueError):
        FaultRates(worker_fault_modes=("nonsense",))


# -- RetryPolicy ----------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=0.0)


def test_backoff_without_jitter_is_exact_and_zero_base_never_waits():
    exact = RetryPolicy(base_delay_s=0.5, multiplier=3.0, jitter=0.0)
    assert [exact.backoff_s(k, seed=1) for k in range(4)] == [0.5, 1.5, 4.5, 13.5]
    assert RetryPolicy(base_delay_s=0.0, jitter=0.5).backoff_s(5, seed=1) == 0.0
    jittered = RetryPolicy(base_delay_s=0.5, multiplier=3.0, jitter=0.25)
    for k in range(4):
        wait = jittered.backoff_s(k, seed=[7, k])
        assert wait == jittered.backoff_s(k, seed=(7, k))
        assert 0.75 * exact.backoff_s(k, seed=0) <= wait <= 1.25 * exact.backoff_s(k, seed=0)


def test_backoff_schedule_is_seeded_and_exponential():
    policy = RetryPolicy(max_attempts=4, base_delay_s=1.0, multiplier=2.0, jitter=0.5)
    assert policy.schedule(seed=9) == policy.schedule(seed=9)
    assert policy.schedule(seed=9) != policy.schedule(seed=10)
    waits = policy.schedule(seed=9)
    assert len(waits) == 3
    for k, w in enumerate(waits):
        nominal = 1.0 * 2.0 ** k
        assert 0.5 * nominal <= w <= 1.5 * nominal


def test_zero_base_delay_means_zero_backoff():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
    assert policy.schedule(seed=1) == (0.0, 0.0, 0.0, 0.0)


# -- simulate_delivery ----------------------------------------------------


def test_delivery_first_try():
    r = simulate_delivery((), RetryPolicy(), seed=0)
    assert r == DeliveryResult(True, 1, 0, 0, 0, 0.0)
    assert r.transmissions == 1


def test_delivery_retransmit_then_success():
    r = simulate_delivery(("lost", "ok"), RetryPolicy(max_attempts=3), seed=0)
    assert r.delivered and r.attempts == 2 and r.retransmits == 1
    assert r.transmissions == 2


def test_delivery_duplicate_counts_extra_transmission():
    r = simulate_delivery(("duplicate",), RetryPolicy(), seed=0)
    assert r.delivered and r.duplicates == 1 and r.transmissions == 2


def test_delivery_corrupt_is_counted_and_retried():
    r = simulate_delivery(("corrupt", "ok"), RetryPolicy(max_attempts=3), seed=0)
    assert r.delivered and r.corrupt == 1 and r.retransmits == 1


def test_delivery_attempts_exhausted():
    r = simulate_delivery(("lost", "lost"), RetryPolicy(max_attempts=2), seed=0)
    assert not r.delivered and r.reason == "attempts exhausted"
    assert r.attempts == 2


def test_exhausted_sequence_keeps_failing_beyond_recorded_attempts():
    # An all-failure sequence (no terminating success code) marks the
    # link down for the round: extra attempts keep failing.
    outcomes = ("lost",) * FaultRates().max_attempt_draws
    r = simulate_delivery(outcomes, RetryPolicy(max_attempts=10), seed=0)
    assert not r.delivered and r.attempts == 10
    # "Fail then recover" is encoded with an explicit success code.
    r2 = simulate_delivery(("lost", "ok"), RetryPolicy(max_attempts=3), seed=0)
    assert r2.delivered and r2.attempts == 2


def test_offline_transfer_fails_immediately():
    r = simulate_delivery((), RetryPolicy(), seed=0, transfer_time_s=math.inf)
    assert not r.delivered and r.reason == "offline" and r.attempts == 0


def test_deadline_budget_cuts_retries_short():
    policy = RetryPolicy(max_attempts=5, base_delay_s=10.0, jitter=0.0, deadline_s=15.0)
    r = simulate_delivery(("lost", "lost", "lost", "lost", "lost"), policy, seed=0)
    assert not r.delivered and r.reason == "deadline"
    assert r.attempts < 5


def test_deadline_on_transfer_time():
    policy = RetryPolicy(max_attempts=3, deadline_s=1.0)
    r = simulate_delivery((), policy, seed=0, transfer_time_s=2.0)
    assert not r.delivered and r.reason == "deadline" and r.attempts == 1


# -- FaultInjector --------------------------------------------------------


def test_filter_window_advances_and_passes_values_through():
    plan = FaultPlan(seed=0, serve_offline=((1, "d1"), (1, "d2")))
    inj = FaultInjector(plan)
    w0 = {"d1": np.ones((3, 2)), "d3": np.ones((1, 2))}
    kept, dropped = inj.filter_window(dict(w0))
    assert kept == w0 and dropped == {}
    w1 = {"d1": np.ones((3, 2)), "d2": np.ones((2, 2)), "d3": np.ones((1, 2))}
    kept, dropped = inj.filter_window(dict(w1))
    assert set(kept) == {"d3"} and set(dropped) == {"d1", "d2"}
    assert dropped["d1"] is w1["d1"]  # values untouched, not copied


def test_injector_reset_replays_from_the_top():
    plan = FaultPlan(seed=0, serve_offline=((0, "d0"),))
    inj = FaultInjector(plan)
    _, dropped = inj.filter_window({"d0": 1})
    assert dropped
    _, dropped = inj.filter_window({"d0": 1})
    assert not dropped
    inj.reset()
    _, dropped = inj.filter_window({"d0": 1})
    assert dropped


def test_crashed_clients_preserves_candidate_order():
    plan = FaultPlan(seed=0, crashes=((2, "c3"), (2, "c1")))
    inj = FaultInjector(plan)
    assert inj.crashed_clients(2, ["c1", "c2", "c3"]) == ["c1", "c3"]
    assert inj.crashed_clients(0, ["c1", "c2", "c3"]) == []


def test_delivery_outcomes_lookup():
    plan = FaultPlan(seed=0, deliveries=((1, "c0", ("lost", "ok")),))
    inj = FaultInjector(plan)
    assert inj.delivery_outcomes(1, "c0") == ("lost", "ok")
    assert inj.delivery_outcomes(1, "c1") == ()


def test_interrupts_fire_once():
    plan = FaultPlan(seed=0, interrupts=((3, 1),))
    inj = FaultInjector(plan)
    assert inj.interrupt_after(3) == 1
    inj.fire_interrupt(3)
    assert inj.interrupt_after(3) is None
    inj.reset()
    assert inj.interrupt_after(3) == 1


def test_dispatch_counters_are_per_scope():
    inj = FaultInjector(FaultPlan.empty())
    assert inj.next_dispatch("serve") == 0
    assert inj.next_dispatch("serve") == 1
    assert inj.next_dispatch("train") == 0


def test_shard_fault_lookup():
    plan = FaultPlan(seed=0, shard_faults=(("train", 1, 2, "raise"),))
    inj = FaultInjector(plan)
    assert inj.shard_fault("train", 1, 2) == "raise"
    assert inj.shard_fault("train", 0, 2) is None
    assert inj.shard_fault("serve", 1, 2) is None


def test_generated_plan_is_seeded_and_kept_by_the_injector():
    # One seed, one plan; the injector holds the plan it was built with.
    inj = FaultInjector(
        FaultPlan.generate(4, device_ids=DEVICES, client_ids=CLIENTS, n_windows=3, n_rounds=2)
    )
    assert inj.plan == FaultPlan.generate(
        4, device_ids=DEVICES, client_ids=CLIENTS, n_windows=3, n_rounds=2
    )
