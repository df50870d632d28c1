"""Tests for the closed-loop model lifecycle (drift → retrain → canary → promote)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PlatformConfig, TinyMLOpsPlatform
from repro.data import make_gaussian_blobs, partition_dirichlet
from repro.devices import Fleet
from repro.lifecycle import (
    GateCheck,
    LifecycleConfig,
    default_gates,
    degraded_candidate,
    oversized_candidate,
)
from repro.nn import Dense, make_mlp


def build_world(seed: int = 21, n_devices: int = 12):
    """A released + deployed platform world with federated shards."""
    ds = make_gaussian_blobs(1000, 12, 4, seed=seed)
    train, test = ds.split(0.3, seed=seed)
    fleet = Fleet.random(n_devices, seed=seed)
    platform = TinyMLOpsPlatform(fleet, PlatformConfig(bit_widths=(8,), sparsities=(0.5,), seed=seed))
    model = make_mlp(12, 4, hidden=(32, 16), seed=0, name="wakeword")
    model.fit(train.x, train.y, epochs=5, lr=0.01, seed=0)
    platform.release(model, test.x, test.y)
    platform.deploy(
        "wakeword",
        reference_x=train.x[:200],
        reference_predictions=model.predict_classes(train.x[:200]),
        num_classes=4,
        prepaid_queries=2000,
    )
    clients = partition_dirichlet(train, 6, alpha=0.7, seed=seed)
    return platform, train, test, clients


def bad_architecture_candidate(incumbent, seed: int = 0):
    """A candidate whose input width does not match the deployment.

    Serving it raises at the first canary window, so the architecture gate
    must catch and roll it back.
    """
    dense = [layer for layer in incumbent.layers if isinstance(layer, Dense)]
    in_dim, out_dim = dense[0].params["W"].shape[0], dense[-1].params["W"].shape[1]
    return make_mlp(in_dim + 3, out_dim, hidden=(8,), seed=seed, name=incumbent.name)


def build_pipeline(platform, test, clients, **overrides):
    kwargs = dict(rounds=2, canary_windows=2, seed=21, schedule_every=2)
    kwargs.update(overrides)
    return platform.lifecycle("wakeword", clients, (test.x, test.y), config=LifecycleConfig(**kwargs))


def fleet_fingerprint(platform):
    """Byte-level fingerprint of the production fleet's ledgers + planes."""
    state = platform.fleet.state
    return {
        "level_j": state.level_j.tobytes(),
        "query_count": state.query_count.tobytes(),
        "ledgers": {d: ledger.export() for d, ledger in sorted(platform.ledgers.items())},
        "drift_events": {d: list(m.drift_events) for d, m in sorted(platform.monitors.items())},
    }


@pytest.fixture(scope="module")
def promoted_world():
    """One schedule-triggered cycle that promotes, shared by read-only tests."""
    platform, train, test, clients = build_world()
    pipeline = build_pipeline(platform, test, clients)
    assert pipeline.step() is None  # tick 1: no drift, schedule not due
    decision = pipeline.step()  # tick 2: schedule fires
    return platform, pipeline, decision


class TestTriggers:
    def test_schedule_trigger_fires_on_interval(self, promoted_world):
        _, _, decision = promoted_world
        assert decision is not None
        assert decision.trigger["kind"] == "schedule"

    def test_drift_trigger_preempts_schedule(self):
        platform, train, test, clients = build_world(seed=5)
        pipeline = build_pipeline(platform, test, clients)
        # Serve shifted traffic on the production fleet so monitors record drift.
        shifted = test.x + 6.0
        for device_id in list(platform.monitors)[:4]:
            platform.serve(device_id, "wakeword", shifted[:60])
        decision = pipeline.step()
        assert decision is not None
        assert decision.trigger["kind"] == "drift"
        assert decision.trigger["n_events"] >= 1

    def test_drift_events_consumed_exactly_once(self):
        platform, train, test, clients = build_world(seed=5)
        pipeline = build_pipeline(platform, test, clients, schedule_every=None)
        shifted = test.x + 6.0
        device_id = next(iter(platform.monitors))
        platform.serve(device_id, "wakeword", shifted[:60])
        first = pipeline.consume_drift_events()
        assert first
        # Nothing new happened: the same events must not re-trigger.
        assert pipeline.consume_drift_events() == []
        assert pipeline.poll() is None


class TestPromotion:
    def test_candidate_promoted_and_staged_production(self, promoted_world):
        platform, _, decision = promoted_world
        assert decision.promoted and decision.reasons == []
        production = platform.registry.production("wakeword")
        assert production is not None
        assert production.version_id == decision.candidate_version

    def test_promotion_flips_every_deployment(self, promoted_world):
        platform, _, decision = promoted_world
        for device_id in decision.canary_devices:
            assert platform.registry.deployed_version(device_id, "wakeword") == decision.candidate_version
        hist = platform.registry.deployment_histogram("wakeword")
        assert set(hist) == {decision.candidate_version}

    def test_pipelines_fired_and_staleness_cleared(self, promoted_world):
        platform, _, decision = promoted_world
        assert len(decision.derived_versions) >= 1
        assert decision.stale_variants_after == 0
        assert platform.registry.stale_variants("wakeword") == []

    def test_decision_recorded_in_store_and_tags(self, promoted_world):
        platform, _, decision = promoted_world
        record = platform.registry.store.get_object(decision.record_digest)
        assert record["promoted"] is True
        assert record["candidate_version"] == decision.candidate_version
        version = platform.registry.get(decision.candidate_version)
        assert version.tags["gate_record"] == decision.record_digest
        assert version.parents == (decision.incumbent_version,)

    def test_serving_uses_promoted_weights(self, promoted_world):
        platform, _, decision = promoted_world
        promoted = platform.registry.load_model(decision.candidate_version)
        x = np.random.default_rng(0).normal(size=(8, 12))
        np.testing.assert_allclose(
            platform.deployed_models["wakeword"].forward(x), promoted.forward(x)
        )

    def test_deploy_prefers_production_version(self, promoted_world):
        platform, _, decision = promoted_world
        device_id = decision.canary_devices[0]
        platform.deploy("wakeword", device_ids=[device_id])
        assert platform.registry.deployed_version(device_id, "wakeword") == decision.candidate_version


class TestDeterminism:
    def test_same_seed_same_promoted_version_and_metrics(self, promoted_world):
        _, _, first = promoted_world
        platform, train, test, clients = build_world()
        pipeline = build_pipeline(platform, test, clients)
        assert pipeline.step() is None
        second = pipeline.step()
        assert second.candidate_version == first.candidate_version
        assert second.promoted == first.promoted
        assert second.candidate_metrics == first.candidate_metrics
        assert second.incumbent_metrics == first.incumbent_metrics
        assert second.canary_devices == first.canary_devices

    def test_batched_and_oracle_canary_agree(self):
        reports = []
        for engine in ("batched", "oracle"):
            platform, train, test, clients = build_world(seed=9)
            pipeline = build_pipeline(platform, test, clients, canary_engine=engine)
            decision = pipeline.run_cycle(
                candidate_model=degraded_candidate(platform.deployed_models["wakeword"], seed=1)
            )
            reports.append((decision.candidate_metrics, decision.incumbent_metrics, decision.promoted))
        assert reports[0] == reports[1]

    def test_sharded_canary_agrees_with_batched(self):
        """The sandbox holds ledger heads; a sharded window re-chains its
        workers' segments onto them and measures what a batched one does."""
        reports = []
        for engine in ("batched", "sharded"):
            platform, train, test, clients = build_world(seed=9)
            pipeline = build_pipeline(platform, test, clients, canary_engine=engine)
            decision = pipeline.run_cycle(
                candidate_model=degraded_candidate(platform.deployed_models["wakeword"], seed=1)
            )
            reports.append((decision.candidate_metrics, decision.incumbent_metrics, decision.promoted))
        assert reports[0] == reports[1]


class TestRollback:
    @pytest.mark.parametrize(
        "make_candidate, gate",
        [
            (bad_architecture_candidate, "architecture"),
            (oversized_candidate, "oversized"),
            (degraded_candidate, "accuracy"),
        ],
    )
    def test_bad_candidates_rejected(self, make_candidate, gate):
        platform, train, test, clients = build_world(seed=3)
        incumbent_deployments = {
            d: platform.registry.deployed_version(d, "wakeword") for d in platform.registry.deployments
        }
        incumbent_model = platform.deployed_models["wakeword"]
        pipeline = build_pipeline(platform, test, clients)
        decision = pipeline.run_cycle(candidate_model=make_candidate(incumbent_model, seed=1))
        assert not decision.promoted
        assert any(reason.startswith(f"{gate}:") for reason in decision.reasons)
        # Rollback: the candidate is staged rejected, the incumbent untouched.
        assert platform.registry.get(decision.candidate_version).tags["stage"] == "rejected"
        assert platform.deployed_models["wakeword"] is incumbent_model
        assert platform.registry.production("wakeword") is None
        for device_id, version in incumbent_deployments.items():
            assert platform.registry.deployed_version(device_id, "wakeword") == version

    def test_canary_does_not_perturb_incumbent_fleet(self):
        # World A runs a full canary cycle (injected candidate: no federated
        # training side-effects); world B does nothing.  The production
        # fleet's planes, MAC-chained ledgers and monitors must match
        # byte-for-byte: the canary ran entirely on cloned state.
        platform_a, _, test_a, clients_a = build_world(seed=13)
        platform_b, _, _, _ = build_world(seed=13)
        pipeline = build_pipeline(platform_a, test_a, clients_a)
        pipeline.run_cycle(
            candidate_model=degraded_candidate(platform_a.deployed_models["wakeword"], seed=2)
        )
        assert fleet_fingerprint(platform_a) == fleet_fingerprint(platform_b)

    def test_rejected_candidate_never_becomes_deploy_target(self):
        platform, train, test, clients = build_world(seed=3)
        pipeline = build_pipeline(platform, test, clients)
        decision = pipeline.run_cycle(
            candidate_model=oversized_candidate(platform.deployed_models["wakeword"], seed=1)
        )
        # Latest *base* is now the rejected candidate, but deploy must not pick it:
        assert platform.registry.latest("wakeword", kind="base").version_id == decision.candidate_version
        device_id = sorted(platform.registry.deployments)[0]
        before = platform.registry.deployed_version(device_id, "wakeword")
        platform.deploy("wakeword", device_ids=[device_id])
        after = platform.registry.deployed_version(device_id, "wakeword")
        # No production staged yet -> falls back to latest base (the rejected
        # one was registered, so guard by promoting a good cycle first).
        pipeline2 = build_pipeline(platform, test, clients)
        good = pipeline2.run_cycle(trigger={"kind": "manual"})
        if good.promoted:
            platform.deploy("wakeword", device_ids=[device_id])
            assert (
                platform.registry.deployed_version(device_id, "wakeword") == good.candidate_version
            )
            assert good.candidate_version != decision.candidate_version


class TestGateExtension:
    def test_metric_probe_and_custom_gate(self):
        platform, train, test, clients = build_world(seed=7)

        def served_fraction_probe(sandbox, model, fleet_report):
            return fleet_report.served / max(fleet_report.requested, 1)

        def strict_gate(candidate, incumbent, config):
            if candidate.extras["served_fraction"] < 2.0:  # impossible: force failure
                return "served fraction below impossible threshold"
            return None

        pipeline = platform.lifecycle(
            "wakeword",
            clients,
            (test.x, test.y),
            config=LifecycleConfig(rounds=1, canary_windows=1, seed=7),
            gates=default_gates() + [GateCheck("strict", strict_gate)],
            metric_probes={"served_fraction": served_fraction_probe},
        )
        decision = pipeline.run_cycle(trigger={"kind": "manual"})
        assert not decision.promoted
        assert any(r.startswith("strict:") for r in decision.reasons)
        assert "served_fraction" in decision.candidate_metrics
        assert "served_fraction" in decision.incumbent_metrics

    def test_history_accumulates(self):
        platform, train, test, clients = build_world(seed=7)
        pipeline = build_pipeline(platform, test, clients)
        pipeline.run_cycle(trigger={"kind": "manual"})
        pipeline.run_cycle(
            candidate_model=oversized_candidate(platform.deployed_models["wakeword"], seed=1)
        )
        assert [d.cycle for d in pipeline.history] == [0, 1]
        kinds = [d.promoted for d in pipeline.history]
        assert kinds[1] is False
