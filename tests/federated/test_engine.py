"""Equivalence and scenario tests for the vectorized FederatedEngine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_gaussian_blobs, partition_dirichlet
from repro.data.federated import ClientData
from repro.devices import Battery, EdgeDevice, Fleet, NetworkCondition, get_profile
from repro.devices.network import NetworkType
from repro.federated import (
    FederatedClient,
    FederatedEngine,
    RandomScheduler,
    RoundScenario,
    TrimmedMeanAggregator,
    get_compressor,
    partition_cohorts,
    vectorized_supported,
)
from repro.nn import make_mlp
from repro.nn.optimizers import get_optimizer
from repro.runtime.sharded import ShardedFleetRunner


@pytest.fixture(scope="module")
def task():
    ds = make_gaussian_blobs(1600, 12, 4, cluster_std=1.2, seed=21)
    train, test = ds.split(0.3, seed=21)
    return train, test


def _clients(train, n=8, **kwargs):
    parts = partition_dirichlet(train, n, alpha=0.5, seed=5)
    defaults = dict(local_epochs=2, lr=0.05, batch_size=32)
    defaults.update(kwargs)
    return [FederatedClient(p, seed=i, **defaults) for i, p in enumerate(parts)]


def _three_cohort_clients(train):
    """Three batched cohorts (sgd, adam, momentum at batch 16) plus a
    zero-sample client, which lands in the idle cohort."""
    clients = _clients(train)
    clients[0].optimizer_name = "adam"
    clients[1].optimizer_name, clients[1].batch_size = "momentum", 16
    clients.append(FederatedClient(ClientData("empty", np.zeros((0, 12)), np.zeros(0, dtype=int)), seed=99))
    return clients


def _pair(train, test, client_kwargs=None, **engine_kwargs):
    """Two identical engine worlds for vectorized-vs-legacy comparison."""
    worlds = []
    for _ in range(2):
        worlds.append(
            FederatedEngine(
                make_mlp(12, 4, hidden=(24, 12), seed=0),
                _clients(train, **(client_kwargs or {})),
                eval_data=(test.x, test.y),
                scheduler=RandomScheduler(0.75, seed=9),
                **engine_kwargs,
            )
        )
    return worlds


def _assert_rounds_equal(a, b):
    assert a.participants == b.participants
    assert a.uplink_bytes == b.uplink_bytes
    assert a.downlink_bytes == b.downlink_bytes
    assert np.isclose(a.train_loss, b.train_loss, atol=1e-9)
    assert np.isclose(a.global_accuracy, b.global_accuracy, atol=1e-9)
    assert np.isclose(a.mean_local_accuracy, b.mean_local_accuracy, atol=1e-9)


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("compressor", [None, "topk", "signsgd", "ternary", "quantized"])
    def test_round_matches_legacy_loop(self, task, compressor):
        train, test = task
        kwargs = {"compressor": get_compressor(compressor)} if compressor else {}
        vec, leg = _pair(train, test, **kwargs)
        w0 = vec.global_model.get_flat_weights().copy()
        rv = vec.run_round(0)
        rl = leg.run_round(0, engine="oracle")
        _assert_rounds_equal(rv, rl)
        dv = vec.global_model.get_flat_weights() - w0
        dl = leg.global_model.get_flat_weights() - w0
        np.testing.assert_allclose(dv, dl, atol=1e-9)

    def test_multi_round_trajectory_matches(self, task):
        train, test = task
        vec, leg = _pair(train, test)
        for r in range(3):
            _assert_rounds_equal(vec.run_round(r), leg.run_round(r, engine="oracle"))
        np.testing.assert_allclose(
            vec.global_model.get_flat_weights(), leg.global_model.get_flat_weights(), atol=1e-9
        )

    def test_fedprox_clients_match_legacy(self, task):
        train, test = task
        vec, leg = _pair(train, test, client_kwargs={"proximal_mu": 0.5})
        _assert_rounds_equal(vec.run_round(0), leg.run_round(0, engine="oracle"))
        np.testing.assert_allclose(
            vec.global_model.get_flat_weights(), leg.global_model.get_flat_weights(), atol=1e-9
        )

    def test_zero_sample_client_contributes_zero_delta(self, task):
        train, test = task
        clients = _clients(train, n=5)
        empty = FederatedClient(
            ClientData(client_id="client-empty", x=np.empty((0, 12)), y=np.empty((0,), dtype=np.int64)),
            seed=99,
        )
        vec = FederatedEngine(make_mlp(12, 4, hidden=(16,), seed=0), clients + [empty], eval_data=(test.x, test.y))
        leg = FederatedEngine(make_mlp(12, 4, hidden=(16,), seed=0), clients + [empty], eval_data=(test.x, test.y))
        _assert_rounds_equal(vec.run_round(0), leg.run_round(0, engine="oracle"))
        np.testing.assert_allclose(
            vec.global_model.get_flat_weights(), leg.global_model.get_flat_weights(), atol=1e-9
        )

    def test_unsupported_model_falls_back_to_per_client_loop(self, task):
        train, test = task
        clients = _clients(train)

        def model():  # BatchNorm in the stack -> genuinely unsupported
            from repro.nn.layers import BatchNorm, Dense
            from repro.nn.model import Sequential

            return Sequential(
                [Dense(16, activation="relu"), BatchNorm(), Dense(4)], input_shape=(12,), seed=0
            )

        assert not vectorized_supported(model(), clients)
        cohorts = partition_cohorts(model(), clients)
        assert [c.kind for c in cohorts] == ["fallback"]
        vec = FederatedEngine(model(), clients, eval_data=(test.x, test.y))
        leg = FederatedEngine(model(), clients, eval_data=(test.x, test.y))
        _assert_rounds_equal(vec.run_round(0), leg.run_round(0, engine="oracle"))

    def test_dropout_model_is_vectorized(self, task):
        """Dropout stacks batch since PR 5 (exact per-client mask streams)."""
        train, test = task
        clients = _clients(train)
        model = make_mlp(12, 4, hidden=(16,), dropout=0.2, seed=0)
        assert vectorized_supported(model, clients)
        vec = FederatedEngine(model, clients, eval_data=(test.x, test.y))
        leg = FederatedEngine(make_mlp(12, 4, hidden=(16,), dropout=0.2, seed=0), clients, eval_data=(test.x, test.y))
        _assert_rounds_equal(vec.run_round(0), leg.run_round(0, engine="oracle"))
        np.testing.assert_allclose(
            vec.global_model.get_flat_weights(), leg.global_model.get_flat_weights(), atol=1e-9
        )

    def test_oracle_is_independent_and_fallback_is_attributable(self, task, counted):
        """engine="oracle" shares the round transaction but no kernel with
        engine="batched" — the guard against every differential suite
        going vacuous (pointing the oracle's collect at partition_cohorts
        fails the train_clients_batched == 0 line)."""
        import repro.federated.engine as engine_mod
        from repro.federated import FedAvgAggregator, TopKSparsifier

        count, calls = counted
        count(engine_mod, "train_clients_batched")
        count(TopKSparsifier, "roundtrip_batch")
        count(FedAvgAggregator, "aggregate_stack")
        count(FederatedClient, "train_round")

        train, test = task
        for engine in ("oracle", "batched", "sharded"):
            clients = _three_cohort_clients(train)
            fed = FederatedEngine(
                make_mlp(12, 4, hidden=(24, 12), seed=0), clients,
                aggregator=FedAvgAggregator(), compressor=TopKSparsifier(0.1), eval_data=(test.x, test.y),
            )
            cohorts = partition_cohorts(fed.global_model, clients)
            n_batched = sum(c.batched for c in cohorts)
            assert n_batched == 3 and {c.kind for c in cohorts} == {"batched", "idle"}
            calls.update(dict.fromkeys(calls, 0))
            with ShardedFleetRunner(backend="inline") as fed.shard_runner:
                result = fed.run_round(0, engine=engine)
            assert len(result.participants) == len(clients)
            if engine == "oracle":
                assert calls == {"train_clients_batched": 0, "roundtrip_batch": 0, "aggregate_stack": 0,
                                 "train_round": len(clients)}
            else:
                assert calls == {"train_clients_batched": n_batched, "roundtrip_batch": 1, "aggregate_stack": 1,
                                 "train_round": 0}

    def test_every_engine_runs_the_one_collect_loop(self, task, counted):
        """One ``_collect_deltas`` per round on every engine — the guard
        against a sharded twin of the loop coming back — and batched and
        sharded run the same kernels: one sweep per batched cohort, one
        ``train_round`` for the fallback client, nothing for the idle one."""
        import repro.federated.engine as engine_mod

        count, calls = counted
        count(FederatedEngine, "_collect_deltas")
        count(engine_mod, "train_clients_batched")
        count(FederatedClient, "train_round")

        train, test = task
        for engine in ("oracle", "batched", "sharded"):
            clients = _three_cohort_clients(train)
            clients[2].optimizer_name = get_optimizer("momentum", lr=0.05)  # stateful: fallback
            fed = FederatedEngine(make_mlp(12, 4, hidden=(24, 12), seed=0), clients, eval_data=(test.x, test.y))
            kinds = sorted(c.kind for c in partition_cohorts(fed.global_model, clients))
            assert kinds == ["batched"] * 3 + ["fallback", "idle"]
            with ShardedFleetRunner(backend="inline") as fed.shard_runner:
                for r in range(2):
                    calls.update(dict.fromkeys(calls, 0))
                    fed.run_round(r, engine=engine)
                    sweeps, per_client = (0, len(clients)) if engine == "oracle" else (3, 1)
                    assert calls == {"_collect_deltas": 1, "train_clients_batched": sweeps,
                                     "train_round": per_client}

    def test_mixed_optimizers_split_into_batched_cohorts(self, task):
        train, _ = task
        clients = _clients(train)
        clients[0].optimizer_name = "adam"
        model = make_mlp(12, 4, seed=0)
        # No longer a single sweep, but no scalar fallback either: one
        # batched cohort per optimizer family.
        assert not vectorized_supported(model, clients)
        cohorts = partition_cohorts(model, clients)
        assert all(c.batched for c in cohorts)
        assert sorted(c.key[0] for c in cohorts) == ["adam", "sgd"]

    def test_server_facade_delegates_to_engine(self, task):
        train, test = task
        server = FederatedEngine(make_mlp(12, 4, hidden=(24, 12), seed=0), _clients(train), eval_data=(test.x, test.y))
        history = server.run(2)
        assert len(server.history) == 2 and history[-1] is server.history[-1]
        assert server.total_communication()["rounds"] == 2.0
        assert history[-1].global_accuracy > 0.5


class TestRoundScenarios:
    def test_dropouts_and_stragglers_are_accounted(self, task):
        train, test = task
        scenario = RoundScenario(dropout_rate=0.3, straggler_timeout_s=0.3, time_per_sample_s=1e-3, seed=11)
        engine = FederatedEngine(
            make_mlp(12, 4, hidden=(16,), seed=0), _clients(train), eval_data=(test.x, test.y), scenario=scenario
        )
        history = engine.run(5)
        assert any(r.n_dropouts > 0 for r in history)
        for r in history:
            assert len(r.participants) + r.n_dropouts + r.n_stragglers == r.n_selected
            # Dropped/straggling clients still received the broadcast model.
            assert r.downlink_bytes == r.n_selected * engine._model_bytes

    def test_scenario_is_deterministic_per_round(self, task):
        train, test = task
        results = []
        for _ in range(2):
            engine = FederatedEngine(
                make_mlp(12, 4, hidden=(16,), seed=0),
                _clients(train),
                eval_data=(test.x, test.y),
                scenario=RoundScenario(dropout_rate=0.4, seed=3),
            )
            results.append([r.participants for r in engine.run(3)])
        assert results[0] == results[1]

    def test_byzantine_clients_are_corrupted_and_trimmed(self, task):
        train, test = task
        byz_id = max(_clients(train, n=8), key=lambda c: c.n_samples).client_id
        attack = dict(byzantine_ids={byz_id}, byzantine_mode="flip", byzantine_scale=30.0)

        def world(aggregator=None, attacked=False):
            return FederatedEngine(
                make_mlp(12, 4, hidden=(16,), seed=0),
                _clients(train, n=8),
                aggregator=aggregator,
                scenario=RoundScenario(**attack) if attacked else None,
            )

        honest_avg, attacked_avg = world(), world(attacked=True)
        honest_trim = world(aggregator=TrimmedMeanAggregator(trim_fraction=0.2))
        robust_trim = world(aggregator=TrimmedMeanAggregator(trim_fraction=0.2), attacked=True)
        assert attacked_avg.run_round(0).n_byzantine == 1
        assert robust_trim.run_round(0).n_byzantine == 1
        honest_avg.run_round(0)
        honest_trim.run_round(0)
        avg_shift = np.linalg.norm(
            attacked_avg.global_model.get_flat_weights() - honest_avg.global_model.get_flat_weights()
        )
        trim_shift = np.linalg.norm(
            robust_trim.global_model.get_flat_weights() - honest_trim.global_model.get_flat_weights()
        )
        # FedAvg absorbs the flipped 30x delta; the trimmed mean discards it.
        assert avg_shift > 10 * trim_shift

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            RoundScenario(dropout_rate=1.5)
        with pytest.raises(ValueError):
            RoundScenario(byzantine_mode="jam")

    def test_all_dropped_round_is_empty_but_billed(self, task):
        train, test = task
        engine = FederatedEngine(
            make_mlp(12, 4, hidden=(16,), seed=0),
            _clients(train),
            eval_data=(test.x, test.y),
            scenario=RoundScenario(dropout_rate=0.999999, seed=0),
        )
        result = engine.run_round(0)
        assert result.participants == [] and result.uplink_bytes == 0
        assert result.downlink_bytes == result.n_selected * engine._model_bytes
        assert result.n_dropouts == result.n_selected > 0


class TestFleetIntegration:
    def _fleet_world(self, train, test, n=8, eligible_ids=("client-0", "client-2")):
        clients = _clients(train, n=n)
        devices = []
        for i, c in enumerate(clients):
            eligible = c.client_id in eligible_ids
            battery = Battery(capacity_j=5000.0, plugged_in=eligible)
            net = NetworkCondition.of(NetworkType.WIFI if eligible else NetworkType.OFFLINE)
            device = EdgeDevice(c.client_id, get_profile("phone-mid"), network=net, battery=battery, seed=i)
            device.idle = True
            devices.append(device)
        fleet = Fleet(devices)
        from repro.federated import EligibilityScheduler

        engine = FederatedEngine(
            make_mlp(12, 4, hidden=(16,), seed=0),
            clients,
            scheduler=EligibilityScheduler(),
            eval_data=(test.x, test.y),
            fleet=fleet,
        )
        return engine, fleet

    def test_selection_driven_by_live_fleet_state(self, task):
        train, test = task
        engine, fleet = self._fleet_world(train, test)
        result = engine.run_round(0)
        assert sorted(result.participants) == ["client-0", "client-2"]

    def test_training_drains_participating_batteries(self, task):
        train, test = task
        engine, fleet = self._fleet_world(train, test)
        # Unplug so the drain is visible in the level (plugged_in recharges state).
        for cid in ("client-0", "client-2"):
            fleet.get(cid).battery.plugged_in = False
            fleet.get(cid).battery.level_j = 5000.0
        engine.scheduler.min_soc = 0.5
        engine.run_round(0)
        for cid in ("client-0", "client-2"):
            assert fleet.get(cid).battery.level_j < 5000.0
        # Non-participants untouched.
        assert fleet.get("client-1").battery.level_j == fleet.get("client-1").battery.capacity_j

    def test_state_change_reflected_next_round(self, task):
        train, test = task
        engine, fleet = self._fleet_world(train, test)
        engine.run_round(0)
        fleet.get("client-0").network = NetworkCondition.of(NetworkType.OFFLINE)
        result = engine.run_round(1)
        assert result.participants == ["client-2"]

    def test_empty_eligibility_records_empty_round(self, task):
        train, test = task
        engine, _ = self._fleet_world(train, test, eligible_ids=())
        result = engine.run_round(0)
        assert result.participants == [] and result.uplink_bytes == 0 and result.downlink_bytes == 0
        assert len(engine.history) == 1

    def test_explicit_context_overrides_fleet(self, task):
        train, test = task
        engine, _ = self._fleet_world(train, test)
        result = engine.run_round(0, device_context={})
        assert result.participants == []

    def test_all_straggler_round_still_drains_batteries(self, task):
        train, test = task
        engine, fleet = self._fleet_world(train, test)
        # A deadline no client can meet: every survivor straggles.
        engine.scenario = RoundScenario(straggler_timeout_s=1e-9, time_per_sample_s=1e-3, seed=0)
        for cid in ("client-0", "client-2"):
            fleet.get(cid).battery.plugged_in = False
            fleet.get(cid).battery.level_j = 5000.0
        result = engine.run_round(0)
        assert result.participants == [] and result.n_stragglers == result.n_selected > 0
        for cid in ("client-0", "client-2"):
            assert fleet.get(cid).battery.level_j < 5000.0


class TestHardwareStragglerLatency:
    """RoundScenario.hardware_latency ties straggler timeouts to peak_flops."""

    def _engine_on(self, train, test, profiles):
        clients = _clients(train, n=len(profiles))
        devices = [
            EdgeDevice(c.client_id, get_profile(p), battery=Battery(capacity_j=5e4, plugged_in=True), seed=i)
            for i, (c, p) in enumerate(zip(clients, profiles))
        ]
        for d in devices:
            d.idle = True
        return (
            FederatedEngine(
                make_mlp(12, 4, hidden=(16,), seed=0),
                clients,
                eval_data=(test.x, test.y),
                fleet=Fleet(devices),
            ),
            clients,
        )

    def test_per_sample_time_follows_device_profile(self, task):
        train, test = task
        engine, clients = self._engine_on(train, test, ["mcu-m4", "phone-flagship"])
        engine.scenario = RoundScenario(hardware_latency=True, straggler_timeout_s=1.0)
        slow = engine._time_per_sample_s(clients[0].client_id)
        fast = engine._time_per_sample_s(clients[1].client_id)
        assert slow > fast > 0.0
        # cross-check against the cost model directly
        cm = engine._ensure_cost_model()
        expected = cm.model_inference_cost(get_profile("mcu-m4"), engine.global_model).latency_s * cm.training_factor
        assert slow == pytest.approx(expected)

    def test_slow_hardware_straggles_fast_hardware_survives(self, task):
        train, test = task
        engine, clients = self._engine_on(train, test, ["mcu-m4", "phone-flagship"])
        slow_id, fast_id = clients[0].client_id, clients[1].client_id
        # Deterministic jitter (sigma=0 -> lognormal == 1); deadline between
        # the two hardware-derived round latencies.
        engine.scenario = RoundScenario(hardware_latency=True, latency_jitter=0.0, straggler_timeout_s=1.0, seed=0)
        slow_total = clients[0].n_samples * clients[0].local_epochs * engine._time_per_sample_s(slow_id)
        fast_total = clients[1].n_samples * clients[1].local_epochs * engine._time_per_sample_s(fast_id)
        assert fast_total < slow_total
        engine.scenario = RoundScenario(
            hardware_latency=True,
            latency_jitter=0.0,
            straggler_timeout_s=(slow_total + fast_total) / 2.0,
            seed=0,
        )
        survivors, stragglers, n_drop, n_strag = engine._apply_scenario([slow_id, fast_id], 0)
        assert survivors == [fast_id]
        assert stragglers == [slow_id] and n_strag == 1 and n_drop == 0

    def test_unmapped_client_falls_back_to_constant(self, task):
        train, test = task
        clients = _clients(train, n=2)
        engine = FederatedEngine(
            make_mlp(12, 4, hidden=(16,), seed=0), clients, eval_data=(test.x, test.y)
        )  # no fleet: no device to read peak_flops from
        engine.scenario = RoundScenario(hardware_latency=True, time_per_sample_s=7e-3)
        assert engine._time_per_sample_s(clients[0].client_id) == 7e-3

    def test_round_reports_hardware_stragglers(self, task):
        train, test = task
        engine, clients = self._engine_on(train, test, ["mcu-m0", "edge-server"])
        slow_total = (
            clients[0].n_samples * clients[0].local_epochs * 3.0
            * engine._ensure_cost_model().model_inference_cost(
                get_profile("mcu-m0"), engine.global_model
            ).latency_s
        )
        engine.scenario = RoundScenario(
            hardware_latency=True, latency_jitter=0.0, straggler_timeout_s=slow_total / 2.0, seed=1
        )
        result = engine.run_round(0)
        assert result.n_stragglers >= 1
        assert clients[0].client_id not in result.participants
