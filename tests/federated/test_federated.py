"""Tests for federated clients, aggregation, compression and scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import drop_labels, make_gaussian_blobs, partition_dirichlet, partition_iid
from repro.federated import (
    ClientUpdate,
    EligibilityScheduler,
    EnergyAwareScheduler,
    FedAdamAggregator,
    FedAvgAggregator,
    FederatedClient,
    FederatedEngine,
    NoCompression,
    QuantizedCompressor,
    RandomScheduler,
    SecureAggregator,
    SignSGDCompressor,
    TernaryCompressor,
    TopKSparsifier,
    TrimmedMeanAggregator,
    centralized_baseline,
    get_compressor,
    personalize_all,
)
from repro.nn import make_mlp


@pytest.fixture(scope="module")
def fl_setup():
    ds = make_gaussian_blobs(1200, 10, 4, seed=11)
    train, test = ds.split(0.3, seed=11)
    clients_data = partition_dirichlet(train, 8, alpha=0.5, seed=11)
    clients = [FederatedClient(cd, local_epochs=2, lr=0.05, seed=i) for i, cd in enumerate(clients_data)]
    return train, test, clients


class TestCompression:
    @pytest.mark.parametrize("name,kwargs", [("none", {}), ("topk", {"fraction": 0.1}), ("signsgd", {}), ("ternary", {}), ("quantized", {"bits": 8})])
    def test_roundtrip_shapes(self, name, kwargs, rng):
        comp = get_compressor(name, **kwargs)
        update = rng.normal(size=1000)
        decoded, compressed = comp.roundtrip(update)
        assert decoded.shape == update.shape
        assert compressed.nbytes > 0

    def test_topk_keeps_largest(self, rng):
        update = rng.normal(size=500)
        decoded, compressed = TopKSparsifier(0.1).roundtrip(update)
        kept = np.flatnonzero(decoded)
        assert kept.size == 50
        threshold = np.sort(np.abs(update))[-50]
        assert np.all(np.abs(update[kept]) >= threshold - 1e-12)

    def test_compression_ratios_ordering(self, rng):
        update = rng.normal(size=4000)
        none_b = NoCompression().compress(update).nbytes
        topk_b = TopKSparsifier(0.05).compress(update).nbytes
        sign_b = SignSGDCompressor().compress(update).nbytes
        tern_b = TernaryCompressor().compress(update).nbytes
        q8_b = QuantizedCompressor(8).compress(update).nbytes
        assert sign_b < tern_b < q8_b < none_b
        assert topk_b < none_b

    def test_quantized_compressor_low_error(self, rng):
        update = rng.normal(size=2000)
        decoded, _ = QuantizedCompressor(8).roundtrip(update)
        assert np.abs(decoded - update).max() < (update.max() - update.min()) / 200

    def test_signsgd_preserves_sign(self, rng):
        update = rng.normal(size=300)
        decoded, _ = SignSGDCompressor().roundtrip(update)
        nonzero = update != 0
        assert np.all(np.sign(decoded[nonzero]) == np.sign(update[nonzero]))

    def test_unknown_compressor(self):
        with pytest.raises(KeyError):
            get_compressor("zip")


class TestAggregation:
    def _updates(self, rng, deltas, counts):
        return [
            ClientUpdate(client_id=f"c{i}", delta=np.asarray(d, dtype=float), n_samples=n, local_loss=0.0)
            for i, (d, n) in enumerate(zip(deltas, counts))
        ]

    def test_fedavg_weighted_mean(self, rng):
        updates = self._updates(rng, [[1.0, 1.0], [3.0, 3.0]], [1, 3])
        agg = FedAvgAggregator().aggregate(updates)
        np.testing.assert_allclose(agg, [2.5, 2.5])

    def test_fedavg_empty_rejected(self):
        with pytest.raises(ValueError):
            FedAvgAggregator().aggregate([])

    def test_trimmed_mean_ignores_outlier(self, rng):
        deltas = [[1.0], [1.1], [0.9], [1.0], [100.0]]
        agg = TrimmedMeanAggregator(trim_fraction=0.2).aggregate(self._updates(rng, deltas, [1] * 5))
        assert abs(agg[0] - 1.0) < 0.2

    def test_fedadam_moves_toward_pseudogradient(self, rng):
        agg = FedAdamAggregator(lr=0.1)
        updates = self._updates(rng, [[1.0, -1.0]], [1])
        step = agg.aggregate(updates)
        assert step[0] > 0 and step[1] < 0

    def test_secure_aggregation_matches_fedavg(self, rng):
        deltas = rng.normal(size=(5, 200))
        updates = self._updates(rng, deltas, [10, 20, 30, 40, 50])
        plain = FedAvgAggregator().aggregate(updates)
        secure = SecureAggregator(seed=3).aggregate(updates)
        np.testing.assert_allclose(plain, secure, atol=1e-9)

    def test_secure_masking_hides_individual_updates(self, rng):
        deltas = rng.normal(size=(4, 100))
        updates = self._updates(rng, deltas, [1, 1, 1, 1])
        masked = SecureAggregator(mask_scale=5.0, seed=0).mask_updates(updates)
        for original, hidden in zip(updates, masked):
            assert np.linalg.norm(hidden.delta - original.delta) > 1.0


class TestClientsAndServer:
    def test_client_update_changes_weights(self, fl_setup):
        _, _, clients = fl_setup
        model = make_mlp(10, 4, hidden=(16,), seed=0)
        update = clients[0].train_round(model)
        assert np.linalg.norm(update.delta) > 0
        assert update.n_samples == clients[0].n_samples

    def test_fedprox_shrinks_update_norm(self, fl_setup):
        _, _, clients = fl_setup
        model = make_mlp(10, 4, hidden=(16,), seed=0)
        plain = FederatedClient(clients[0].data, local_epochs=2, lr=0.05, proximal_mu=0.0, seed=0).train_round(model)
        prox = FederatedClient(clients[0].data, local_epochs=2, lr=0.05, proximal_mu=1.0, seed=0).train_round(model)
        assert np.linalg.norm(prox.delta) < np.linalg.norm(plain.delta)

    def test_federated_training_approaches_centralized(self, fl_setup):
        train, test, clients = fl_setup
        global_model = make_mlp(10, 4, hidden=(32, 16), seed=0)
        server = FederatedEngine(global_model, clients, eval_data=(test.x, test.y), scheduler=RandomScheduler(0.6, seed=0))
        history = server.run(8)
        fed_acc = history[-1].global_accuracy
        central = centralized_baseline(make_mlp(10, 4, hidden=(32, 16), seed=0), clients, (test.x, test.y), epochs=6)
        assert fed_acc > 0.8
        assert central["accuracy"] - fed_acc < 0.15
        assert history[0].global_accuracy <= fed_acc + 0.05

    def test_compression_reduces_uplink(self, fl_setup):
        train, test, clients = fl_setup
        dense = FederatedEngine(make_mlp(10, 4, hidden=(16,), seed=0), clients, eval_data=(test.x, test.y))
        sparse = FederatedEngine(
            make_mlp(10, 4, hidden=(16,), seed=0), clients, eval_data=(test.x, test.y), compressor=TopKSparsifier(0.05)
        )
        dense.run(2)
        sparse.run(2)
        assert sparse.total_communication()["uplink_mb"] < dense.total_communication()["uplink_mb"] * 0.2

    def test_personalization_improves_local_accuracy_on_noniid(self):
        ds = make_gaussian_blobs(1500, 10, 5, cluster_std=1.5, seed=4)
        train, test = ds.split(0.3, seed=4)
        parts = partition_dirichlet(train, 6, alpha=0.1, seed=4)
        clients = [FederatedClient(cd, local_epochs=1, lr=0.05, seed=i) for i, cd in enumerate(parts)]
        server = FederatedEngine(make_mlp(10, 5, hidden=(16,), seed=0), clients, eval_data=(test.x, test.y))
        server.run(3)
        results = personalize_all(server.global_model, clients, epochs=3)
        gains = [r.get("personal_accuracy", 0.0) - r["global_accuracy"] for r in results.values()]
        assert np.mean(gains) > -0.02  # personalization should not hurt on average
        assert max(gains) >= 0.0

    def test_pseudo_labeling_promotes_samples(self, fl_setup):
        train, test, clients = fl_setup
        model = make_mlp(10, 4, hidden=(32,), seed=0)
        model.fit(train.x, train.y, epochs=5, lr=0.02)
        semi_data = drop_labels(clients[0].data, 0.5, seed=0)
        semi_client = FederatedClient(semi_data, seed=0)
        before = semi_client.n_samples
        promoted = semi_client.pseudo_label(model, confidence_threshold=0.7)
        assert promoted > 0
        assert semi_client.n_samples == before + promoted

    def test_empty_round_when_no_eligible_clients(self, fl_setup):
        train, test, clients = fl_setup
        server = FederatedEngine(
            make_mlp(10, 4, hidden=(8,), seed=0),
            clients,
            scheduler=EligibilityScheduler(),
            eval_data=(test.x, test.y),
        )
        result = server.run_round(0, device_context={})
        assert result.participants == [] and result.uplink_bytes == 0


class TestSchedulers:
    def _context(self, online=True, metered=False, idle=True, plugged=True, soc=0.9):
        return {
            "network_online": online,
            "metered": metered,
            "idle": idle,
            "power_state": "plugged_in" if plugged else "on_battery",
            "state_of_charge": soc,
        }

    def test_random_scheduler_fraction(self):
        sched = RandomScheduler(fraction=0.5, min_clients=1, seed=0)
        picked = sched.select([f"c{i}" for i in range(10)], 0)
        assert len(picked) == 5

    def test_eligibility_scheduler_filters(self):
        sched = EligibilityScheduler()
        ctx = {
            "good": self._context(),
            "metered": self._context(metered=True),
            "offline": self._context(online=False),
            "busy": self._context(idle=False),
            "low_batt": self._context(plugged=False, soc=0.2),
        }
        picked = sched.select(list(ctx), 0, context=ctx)
        assert picked == ["good"]

    def test_energy_aware_prefers_plugged(self):
        sched = EnergyAwareScheduler(max_clients=2)
        ctx = {
            "plugged": self._context(plugged=True, soc=0.5),
            "full_battery": self._context(plugged=False, soc=0.95),
            "low": self._context(plugged=False, soc=0.2),
        }
        picked = sched.select(list(ctx), 0, context=ctx)
        assert picked[0] == "plugged" and "low" not in picked
