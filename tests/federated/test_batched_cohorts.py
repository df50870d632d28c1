"""Batched-vs-legacy equivalence for the generalized vectorized engine.

PR 5 extends ``train_clients_batched`` beyond plain-SGD/uniform-config/pure-
Dense fleets: momentum and Adam clients (stacked per-client optimizer state,
per-client hyper-parameters), Dropout models (per-client mask streams cloned
at the exact per-client-loop position) and mixed batch-size / epoch /
optimizer fleets bucketed into homogeneous cohorts.  Every new path must be
allclose-identical to the per-client loop, which stays the oracle.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.federated.engine as engine_mod
from repro.data import make_gaussian_blobs, partition_dirichlet, partition_iid
from repro.data.federated import ClientData
from repro.federated import (
    FederatedClient,
    FederatedEngine,
    partition_cohorts,
    train_clients_batched,
    vectorized_supported,
)
from repro.nn import make_mlp
from repro.nn.optimizers import SGD, Adam, Momentum

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def task():
    ds = make_gaussian_blobs(1200, 10, 4, cluster_std=1.2, seed=31)
    return ds.split(0.25, seed=31)


def _clients(train, n=6, configs=None, **kwargs):
    parts = partition_dirichlet(train, n, alpha=0.7, seed=3)
    defaults = dict(local_epochs=2, lr=0.04, batch_size=16)
    out = []
    for i, p in enumerate(parts):
        cfg = dict(defaults)
        cfg.update(kwargs)
        if configs is not None:
            cfg.update(configs[i % len(configs)])
        out.append(FederatedClient(p, seed=i, **cfg))
    return out


def _model(dropout=0.0, hidden=(12, 8)):
    return make_mlp(10, 4, hidden=hidden, dropout=dropout, seed=0)


def _assert_equiv(vec, leg, rounds=1, atol=1e-9):
    for r in range(rounds):
        rv, rl = vec.run_round(r), leg.run_round(r, engine="oracle")
        assert rv.participants == rl.participants
        assert rv.uplink_bytes == rl.uplink_bytes
        assert np.isclose(rv.train_loss, rl.train_loss, atol=atol)
        assert np.isclose(rv.mean_local_accuracy, rl.mean_local_accuracy, atol=atol)
    np.testing.assert_allclose(
        vec.global_model.get_flat_weights(), leg.global_model.get_flat_weights(), atol=atol
    )


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("optimizer", ["momentum", "adam"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_round_matches_legacy(self, task, optimizer, dropout):
        train, test = task
        mk = lambda: FederatedEngine(
            _model(dropout), _clients(train, optimizer=optimizer), eval_data=(test.x, test.y)
        )
        _assert_equiv(mk(), mk(), rounds=2)

    @pytest.mark.parametrize(
        "optimizer,kwargs",
        [
            ("momentum", {"momentum": 0.8}),
            ("momentum", {"momentum": 0.95, "weight_decay": 1e-3}),
            ("adam", {"beta1": 0.85, "beta2": 0.97}),
            ("adam", {"eps": 1e-6, "weight_decay": 5e-4}),
            ("sgd", {"weight_decay": 1e-3}),
        ],
    )
    def test_custom_hyperparams_match_legacy(self, task, optimizer, kwargs):
        train, test = task
        mk = lambda: FederatedEngine(
            _model(0.2),
            _clients(train, optimizer=optimizer, optimizer_kwargs=kwargs),
            eval_data=(test.x, test.y),
        )
        _assert_equiv(mk(), mk())

    def test_per_client_lr_broadcasts_within_cohort(self, task):
        train, test = task
        configs = [{"lr": 0.01}, {"lr": 0.08}, {"lr": 0.03}]
        mk = lambda: FederatedEngine(
            _model(), _clients(train, configs=configs, optimizer="adam"), eval_data=(test.x, test.y)
        )
        vec = mk()
        assert vectorized_supported(vec.global_model, list(vec.clients.values()))
        _assert_equiv(vec, mk())

    def test_fedprox_with_adam_and_dropout(self, task):
        train, test = task
        mk = lambda: FederatedEngine(
            _model(0.25),
            _clients(train, optimizer="adam", proximal_mu=0.4),
            eval_data=(test.x, test.y),
        )
        _assert_equiv(mk(), mk())

    def test_ragged_shards_mask_optimizer_state(self, task):
        """Clients that exhaust their batches early must freeze m/v/velocity
        exactly like the per-client loop (batch size chosen so shard sizes
        straddle a step boundary)."""
        train, test = task
        for optimizer in ("momentum", "adam"):
            mk = lambda: FederatedEngine(
                _model(), _clients(train, batch_size=7, optimizer=optimizer), eval_data=(test.x, test.y)
            )
            _assert_equiv(mk(), mk())

    def test_optimizer_state_layout_exposed(self, task):
        train, _ = task
        c = _clients(train, n=1)[0]
        assert c.optimizer_state_layout() == ()
        c.optimizer_name = "momentum"
        assert c.optimizer_state_layout() == ("velocity",)
        c.optimizer_name = "adam"
        assert c.optimizer_state_layout() == ("m", "v", "t")
        cfg = c.batched_optimizer_config()
        assert cfg["family"] == "adam" and cfg["beta1"] == Adam().beta1
        c.optimizer_name = Momentum(lr=0.1)  # stateful instance -> unreplayable
        assert c.optimizer_state_layout() is None and c.batched_optimizer_config() is None


class TestCohortPartition:
    def test_mixed_configs_bucket_without_fallback(self, task):
        train, test = task
        configs = [
            {"optimizer": "adam", "batch_size": 8},
            {"optimizer": "sgd", "batch_size": 16},
            {"optimizer": "momentum", "batch_size": 8, "local_epochs": 1},
        ]
        mk = lambda: FederatedEngine(
            _model(0.2), _clients(train, n=9, configs=configs), eval_data=(test.x, test.y)
        )
        vec = mk()
        cohorts = partition_cohorts(vec.global_model, list(vec.clients.values()))
        assert len(cohorts) == 3 and all(c.batched for c in cohorts)
        assert not vectorized_supported(vec.global_model, list(vec.clients.values()))
        _assert_equiv(vec, mk(), rounds=2)

    def test_singleton_cohorts(self, task):
        """Every client a different batch size: one-client sweeps still match."""
        train, test = task
        configs = [{"batch_size": b} for b in (3, 5, 8, 11, 16)]
        mk = lambda: FederatedEngine(
            _model(0.2), _clients(train, n=5, configs=configs), eval_data=(test.x, test.y)
        )
        vec = mk()
        cohorts = partition_cohorts(vec.global_model, list(vec.clients.values()))
        assert len(cohorts) == 5 and all(len(c.indices) == 1 for c in cohorts)
        _assert_equiv(vec, mk())

    def test_all_fallback_on_optimizer_instances(self, task):
        train, test = task
        mk = lambda: FederatedEngine(
            _model(),
            [
                FederatedClient(p, seed=i, optimizer=SGD(lr=0.04), lr=0.04)
                for i, p in enumerate(partition_dirichlet(train, 4, alpha=0.7, seed=3))
            ],
            eval_data=(test.x, test.y),
        )
        vec = mk()
        cohorts = partition_cohorts(vec.global_model, list(vec.clients.values()))
        assert [c.kind for c in cohorts] == ["fallback"]
        # NOTE: a fresh SGD instance per engine keeps the oracle honest (the
        # instance carries no state, unlike momentum/adam instances).
        _assert_equiv(vec, mk())

    def test_zero_sample_clients_form_idle_cohort(self, task):
        train, test = task
        clients = _clients(train, n=3, configs=[{"optimizer": "adam"}])
        empty = FederatedClient(
            ClientData("empty", np.empty((0, 10)), np.empty((0,), dtype=np.int64)),
            batch_size=999,  # config must NOT split batched cohorts
            optimizer="momentum",
            seed=50,
        )
        model = _model()
        cohorts = partition_cohorts(model, clients + [empty])
        kinds = sorted(c.kind for c in cohorts)
        assert kinds == ["batched", "idle"]
        assert vectorized_supported(model, clients + [empty])
        mk = lambda: FederatedEngine(
            _model(), _clients(train, n=3, configs=[{"optimizer": "adam"}]) + [empty], eval_data=(test.x, test.y)
        )
        _assert_equiv(mk(), mk())

    def test_direct_call_rejects_heterogeneous_cohort(self, task):
        train, _ = task
        clients = _clients(train, n=4, configs=[{"optimizer": "adam"}, {"optimizer": "sgd"}])
        with pytest.raises(ValueError, match="partition_cohorts"):
            train_clients_batched(_model(), clients)

    def test_unsupported_model_rejected_by_trainer(self, task):
        train, _ = task
        from repro.nn import make_tiny_cnn

        with pytest.raises(ValueError, match="Dense"):
            train_clients_batched(make_tiny_cnn((4, 4, 1), 2, filters=(2,), seed=0), _clients(train, n=2))


class TestDropoutStreams:
    def test_global_dropout_state_untouched_by_batched_round(self, task):
        """The batched replay clones the mask streams; the global model's own
        Dropout generators must stay at their pre-round position (exactly
        like per-client model clones in the legacy loop)."""
        train, test = task
        engine = FederatedEngine(_model(0.3), _clients(train), eval_data=(test.x, test.y))
        drop_layers = [l for l in engine.global_model.layers if type(l).__name__ == "Dropout"]
        before = [l._rng.bit_generator.state for l in drop_layers]
        engine.run_round(0)
        after = [l._rng.bit_generator.state for l in drop_layers]
        assert before == after

    def test_mixed_scalar_batched_rounds_identical(self, task):
        """legacy->batched->legacy must equal pure-legacy: mask stream
        positions survive switching execution paths mid-training."""
        train, test = task
        mk = lambda: FederatedEngine(_model(0.3), _clients(train, optimizer="adam"), eval_data=(test.x, test.y))
        mixed, pure = mk(), mk()
        mixed.run_round(0, engine="oracle")
        pure.run_round(0, engine="oracle")
        mixed.run_round(1)
        pure.run_round(1, engine="oracle")
        mixed.run_round(2, engine="oracle")
        pure.run_round(2, engine="oracle")
        np.testing.assert_allclose(
            mixed.global_model.get_flat_weights(), pure.global_model.get_flat_weights(), atol=1e-9
        )

    def test_zero_rate_dropout_draws_nothing(self, task):
        """A rate-0 Dropout layer consumes no RNG in either path (make_mlp
        omits the layer at rate 0, so build the stack explicitly)."""
        train, test = task
        from repro.nn.layers import Dense, Dropout
        from repro.nn.model import Sequential

        def explicit():
            return Sequential(
                [Dense(12, activation="relu"), Dropout(0.0), Dense(4)], input_shape=(10,), seed=0
            )

        vec = FederatedEngine(explicit(), _clients(train), eval_data=(test.x, test.y))
        leg = FederatedEngine(explicit(), _clients(train), eval_data=(test.x, test.y))
        rv, rl = vec.run_round(0), leg.run_round(0, engine="oracle")
        assert rv.participants == rl.participants
        np.testing.assert_allclose(
            vec.global_model.get_flat_weights(), leg.global_model.get_flat_weights(), atol=1e-9
        )


class TestRngPoolLru:
    def test_pool_is_capped_and_eviction_preserves_streams(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_RNG_POOL", OrderedDict())
        monkeypatch.setattr(engine_mod, "_RNG_POOL_MAX", 4)
        for seed in range(10):
            engine_mod._pooled_rng(seed)
        assert len(engine_mod._RNG_POOL) == 4
        assert list(engine_mod._RNG_POOL) == [6, 7, 8, 9]
        # Seed 0 was evicted: re-entry must restart the exact stream a fresh
        # default_rng(0) produces, and reuse must restart it again.
        first = engine_mod._pooled_rng(0).random(8)
        np.testing.assert_array_equal(first, np.random.default_rng(0).random(8))
        np.testing.assert_array_equal(engine_mod._pooled_rng(0).random(8), first)

    def test_recently_used_seed_survives(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_RNG_POOL", OrderedDict())
        monkeypatch.setattr(engine_mod, "_RNG_POOL_MAX", 3)
        for seed in (1, 2, 3):
            engine_mod._pooled_rng(seed)
        engine_mod._pooled_rng(1)  # touch -> most recent
        engine_mod._pooled_rng(4)  # evicts 2, not 1
        assert set(engine_mod._RNG_POOL) == {1, 3, 4}

    def test_long_run_with_fresh_seeds_stays_bounded(self, task, monkeypatch):
        monkeypatch.setattr(engine_mod, "_RNG_POOL", OrderedDict())
        monkeypatch.setattr(engine_mod, "_RNG_POOL_MAX", 8)
        train, test = task
        clients = _clients(train, n=4)
        engine = FederatedEngine(_model(), clients, eval_data=(test.x, test.y))
        for r in range(5):
            for i, c in enumerate(clients):
                c.seed = 100 * r + i  # fresh seeds every round
            engine.run_round(r)
        assert len(engine_mod._RNG_POOL) <= 8


class TestHypothesisEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        optimizers=st.lists(st.sampled_from(["sgd", "momentum", "adam"]), min_size=2, max_size=4),
        batch_sizes=st.lists(st.sampled_from([3, 6, 16]), min_size=2, max_size=4),
        dropout=st.sampled_from([0.0, 0.3]),
        epochs=st.integers(min_value=1, max_value=2),
        mu=st.sampled_from([0.0, 0.25]),
    )
    def test_random_mixed_fleets_match_legacy(self, optimizers, batch_sizes, dropout, epochs, mu):
        ds = make_gaussian_blobs(120, 6, 3, cluster_std=1.1, seed=7)
        n = max(len(optimizers), len(batch_sizes))
        parts = partition_iid(ds, n, seed=5)

        def mk():
            clients = [
                FederatedClient(
                    p,
                    local_epochs=epochs,
                    batch_size=batch_sizes[i % len(batch_sizes)],
                    lr=0.03 + 0.01 * i,
                    optimizer=optimizers[i % len(optimizers)],
                    proximal_mu=mu,
                    seed=i,
                )
                for i, p in enumerate(parts)
            ]
            return FederatedEngine(make_mlp(6, 3, hidden=(8,), dropout=dropout, seed=0), clients)

        vec, leg = mk(), mk()
        rv, rl = vec.run_round(0), leg.run_round(0, engine="oracle")
        assert rv.participants == rl.participants
        assert np.isclose(rv.train_loss, rl.train_loss, atol=1e-9)
        np.testing.assert_allclose(
            vec.global_model.get_flat_weights(), leg.global_model.get_flat_weights(), atol=1e-9
        )
