"""Edge-case tests for client schedulers: empty fleets, tiny fleets,
determinism under fixed seeds and malformed device context."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_gaussian_blobs, partition_iid
from repro.federated import (
    EligibilityScheduler,
    FederatedClient,
    FederatedEngine,
    RandomScheduler,
)
from repro.nn import make_mlp


def _ctx(online=True, metered=False, idle=True, plugged=True, soc=0.9):
    return {
        "network_online": online,
        "metered": metered,
        "idle": idle,
        "power_state": "plugged_in" if plugged else "on_battery",
        "state_of_charge": soc,
    }


class TestRandomSchedulerEdges:
    def test_empty_client_list(self):
        assert RandomScheduler(fraction=0.5, seed=0).select([], 0) == []

    def test_min_clients_larger_than_fleet(self):
        picked = RandomScheduler(fraction=0.1, min_clients=50, seed=0).select(["a", "b", "c"], 0)
        assert sorted(picked) == ["a", "b", "c"]

    def test_single_client_fleet(self):
        assert RandomScheduler(fraction=1.0, min_clients=1, seed=0).select(["only"], 0) == ["only"]

    def test_deterministic_across_instances_with_same_seed(self):
        ids = [f"c{i}" for i in range(30)]
        a = RandomScheduler(fraction=0.4, seed=7)
        b = RandomScheduler(fraction=0.4, seed=7)
        for round_index in range(5):
            assert a.select(ids, round_index) == b.select(ids, round_index)

    def test_different_seeds_eventually_differ(self):
        ids = [f"c{i}" for i in range(30)]
        a = [RandomScheduler(fraction=0.4, seed=1).select(ids, r) for r in range(3)]
        b = [RandomScheduler(fraction=0.4, seed=2).select(ids, r) for r in range(3)]
        assert a != b

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            RandomScheduler(fraction=0.0)
        with pytest.raises(ValueError):
            RandomScheduler(fraction=1.5)


class TestEligibilitySchedulerEdges:
    def test_missing_context_keys_mean_ineligible_not_crash(self):
        sched = EligibilityScheduler()
        contexts = {
            "no_keys": {},
            "only_online": {"network_online": True},
            "online_idle": {"network_online": True, "idle": True},
        }
        assert sched.select(list(contexts), 0, context=contexts) == []

    def test_none_values_in_context_do_not_crash(self):
        sched = EligibilityScheduler()
        contexts = {
            "none_soc": {"network_online": True, "idle": True, "metered": False, "power_state": None, "state_of_charge": None},
            "junk_soc": {"network_online": True, "idle": True, "metered": False, "state_of_charge": "low"},
            "good": _ctx(),
        }
        assert sched.select(list(contexts), 0, context=contexts) == ["good"]

    def test_none_context_entry(self):
        sched = EligibilityScheduler()
        assert sched.select(["a"], 0, context={"a": None}) == []

    def test_missing_soc_with_plugged_power_is_eligible(self):
        ctx = {"network_online": True, "idle": True, "metered": False, "power_state": "plugged_in"}
        assert EligibilityScheduler().select(["a"], 0, context={"a": ctx}) == ["a"]

    def test_max_clients_zero(self):
        contexts = {f"c{i}": _ctx() for i in range(5)}
        assert EligibilityScheduler(max_clients=0).select(list(contexts), 0, context=contexts) == []

    def test_no_context_at_all(self):
        assert EligibilityScheduler().select(["a", "b"], 0, context=None) == []

    def test_deterministic_downsampling_with_seed(self):
        contexts = {f"c{i}": _ctx() for i in range(20)}
        a = EligibilityScheduler(max_clients=5, seed=3)
        b = EligibilityScheduler(max_clients=5, seed=3)
        for r in range(4):
            assert a.select(list(contexts), r, context=contexts) == b.select(list(contexts), r, context=contexts)


class TestSchedulerEngineInteraction:
    @pytest.fixture(scope="class")
    def small_world(self):
        ds = make_gaussian_blobs(400, 8, 3, seed=13)
        train, test = ds.split(0.25, seed=13)
        parts = partition_iid(train, 3, seed=13)
        clients = [FederatedClient(p, local_epochs=1, lr=0.05, seed=i) for i, p in enumerate(parts)]
        return clients, test

    def test_empty_eligibility_records_empty_round(self, small_world):
        clients, test = small_world
        engine = FederatedEngine(
            make_mlp(8, 3, hidden=(8,), seed=0), clients, scheduler=EligibilityScheduler(), eval_data=(test.x, test.y)
        )
        result = engine.run_round(0, device_context={})
        assert result.participants == [] and result.uplink_bytes == 0 and result.train_loss == 0.0
        assert result.global_accuracy > 0.0  # evaluation still ran

    def test_min_clients_larger_than_fleet_trains_everyone(self, small_world):
        clients, test = small_world
        engine = FederatedEngine(
            make_mlp(8, 3, hidden=(8,), seed=0),
            clients,
            scheduler=RandomScheduler(fraction=0.1, min_clients=10, seed=0),
            eval_data=(test.x, test.y),
        )
        result = engine.run_round(0)
        assert sorted(result.participants) == sorted(c.client_id for c in clients)

    def test_rounds_with_partial_context_skip_unknown_clients(self, small_world):
        clients, test = small_world
        context = {clients[0].client_id: _ctx()}  # others unknown -> ineligible
        engine = FederatedEngine(
            make_mlp(8, 3, hidden=(8,), seed=0), clients, scheduler=EligibilityScheduler(), eval_data=(test.x, test.y)
        )
        result = engine.run_round(0, device_context=context)
        assert result.participants == [clients[0].client_id]
