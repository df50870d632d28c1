"""Tests for modules, sandbox, pipelines, placement and offloading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import Fleet, InstalledArtifact, NetworkCondition, NetworkType, get_profile
from repro.exchange import from_sequential
from repro.nn import make_mlp
from repro.runtime import (
    Capability,
    ConditionalStage,
    Module,
    OffloadBid,
    OffloadMarketplace,
    Orchestrator,
    Pipeline,
    Sandbox,
    SandboxViolation,
    argmax_module,
    find_best_split,
    model_module,
    softmax_module,
)


class TestModulesAndSandbox:
    def test_argmax_module(self):
        assert argmax_module()(np.array([[0.1, 0.9], [0.8, 0.2]])).tolist() == [1, 0]

    def test_softmax_module_normalizes(self, rng):
        out = softmax_module()(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_model_module_matches_model(self, trained_mlp, blobs):
        _, test = blobs
        module = model_module(trained_mlp)
        np.testing.assert_allclose(module(test.x[:8]), trained_mlp.forward(test.x[:8]))
        assert module.size_bytes == trained_mlp.num_params() * 4

    def test_module_digest_changes_with_capabilities(self):
        a = Module("m", fn=lambda x: x)
        b = Module("m", fn=lambda x: x, requires=frozenset({Capability.COMPUTE, Capability.NETWORK}))
        assert a.digest() != b.digest()

    def test_sandbox_blocks_missing_capability(self, rng):
        camera_module = Module("camera-reader", fn=lambda x: x, requires=frozenset({Capability.SENSOR_CAMERA}))
        sandbox = Sandbox(granted=(Capability.COMPUTE,), device_id="dev-1")
        assert not camera_module.requires <= sandbox.granted
        with pytest.raises(SandboxViolation):
            sandbox.run(camera_module, rng.normal(size=(2, 2)))

    def test_sandbox_allows_and_logs(self, rng):
        sandbox = Sandbox(granted=(Capability.COMPUTE,))
        sandbox.run(softmax_module(), rng.normal(size=(3, 2)))
        assert len(sandbox.execution_log) == 1

    def test_sandbox_unknown_capability(self):
        with pytest.raises(ValueError):
            Sandbox(granted=("root",))


class TestPipeline:
    def test_full_pipeline_accuracy(self, trained_mlp, blobs):
        _, test = blobs
        pipeline = Pipeline([model_module(trained_mlp), softmax_module(), argmax_module()], name="clf")
        preds = pipeline.run(test.x)
        assert np.mean(preds == test.y) > 0.9

    def test_cascade_routes_by_confidence(self, trained_mlp, blobs):
        train, test = blobs
        small = make_mlp(12, 4, hidden=(4,), seed=50)
        small.fit(train.x, train.y, epochs=2, lr=0.02)
        cascade = Pipeline(
            [
                ConditionalStage(
                    "escalate",
                    predicate=lambda x: np.linalg.norm(x, axis=1) < np.median(np.linalg.norm(x, axis=1)),
                    if_true=Pipeline([model_module(small)], name="cheap"),
                    if_false=Pipeline([model_module(trained_mlp)], name="accurate"),
                ),
                argmax_module(),
            ],
            name="cascade",
        )
        preds = cascade.run(test.x)
        assert preds.shape == (len(test.x),)
        assert np.mean(preds == test.y) > 0.5

    def test_manifest_and_capabilities(self, trained_mlp):
        pipeline = Pipeline([Module("normalize", fn=lambda x: x, size_bytes=256), model_module(trained_mlp)], name="p")
        manifest = pipeline.manifest()
        assert manifest["stages"] == ["normalize", "fixture_mlp"]
        assert manifest["capabilities"] == ["compute"]
        assert pipeline.size_bytes() > trained_mlp.num_params()

    def test_pipeline_respects_sandbox(self, trained_mlp, blobs):
        _, test = blobs
        net_module = Module("uploader", fn=lambda x: x, requires=frozenset({Capability.NETWORK}))
        pipeline = Pipeline([model_module(trained_mlp), net_module], name="leaky")
        with pytest.raises(SandboxViolation):
            pipeline.run(test.x[:4], sandbox=Sandbox(granted=(Capability.COMPUTE,)))

    def test_sandboxed_run_matches_free_run_and_logs_each_stage(self, trained_mlp, blobs):
        _, test = blobs
        pipeline = Pipeline([model_module(trained_mlp), argmax_module()], name="audited")
        fleet = Fleet.random(1, seed=13)
        sandbox = Orchestrator(fleet).grant_capabilities(next(iter(fleet)).device_id, (Capability.COMPUTE,))
        np.testing.assert_array_equal(pipeline.run(test.x[:3], sandbox=sandbox), pipeline.run(test.x[:3]))
        assert [e["module"] for e in sandbox.execution_log] == ["fixture_mlp", "argmax"]
        assert all(e["n"] == 3 for e in sandbox.execution_log)

    def test_cascade_assembles_each_branch_on_its_rows(self, trained_mlp, blobs):
        train, test = blobs
        small = make_mlp(12, 4, hidden=(4,), seed=51)
        small.fit(train.x, train.y, epochs=1, lr=0.02)
        cheap = Pipeline([model_module(small)], name="cheap")
        accurate = Pipeline([model_module(trained_mlp)], name="accurate")
        x = test.x[:16]
        mask = np.linalg.norm(x, axis=1) < np.median(np.linalg.norm(x, axis=1))
        stage = ConditionalStage("escalate", predicate=lambda _: mask, if_true=cheap, if_false=accurate)
        out = Pipeline([stage], name="cascade").run(x)
        assert out.shape == (16, 4)
        np.testing.assert_array_equal(out[mask], cheap.run(x[mask]))
        np.testing.assert_array_equal(out[~mask], accurate.run(x[~mask]))

    def test_cascade_rejects_a_mask_of_the_wrong_length(self, trained_mlp, blobs):
        _, test = blobs
        branch = Pipeline([model_module(trained_mlp)], name="b")
        stage = ConditionalStage("bad", predicate=lambda x: np.ones(len(x) - 1, dtype=bool), if_true=branch, if_false=branch)
        with pytest.raises(ValueError):
            Pipeline([stage]).run(test.x[:4])

    def test_empty_window_keeps_the_output_width(self, trained_mlp):
        pipeline = Pipeline([model_module(trained_mlp), softmax_module()], name="clf")
        assert pipeline.run(np.empty((0, 12))).shape == (0, 4)

    def test_empty_window_through_a_cascade_keeps_the_output_width(self, trained_mlp):
        branch = Pipeline([model_module(trained_mlp), softmax_module()], name="b")
        stage = ConditionalStage("escalate", predicate=lambda x: x[:, 0] > 0, if_true=branch, if_false=branch)
        out = Pipeline([stage, argmax_module()]).run(np.empty((0, 12)))
        assert out.shape == (0,)


def _place_on_fleet(orchestrator: Orchestrator, pipeline: Pipeline) -> dict:
    """``place`` on every device of the fleet; success/failure counts."""
    decisions = orchestrator.place(pipeline, [d.device_id for d in orchestrator.fleet])
    placed = sum(1 for d in decisions if d.placed)
    return {"placed": placed, "failed": len(decisions) - placed}


class TestOrchestration:
    def test_place_on_capable_fleet(self, trained_mlp):
        fleet = Fleet.random(25, seed=5)
        orchestrator = Orchestrator(fleet)
        pipeline = Pipeline([model_module(trained_mlp)], name="wake")
        result = _place_on_fleet(orchestrator, pipeline)
        assert result["placed"] == 25
        assert all("wake" in d.installed for d in fleet)

    def test_storage_constraint_blocks_placement(self):
        fleet = Fleet.random(5, mix={"mcu-m0": 1.0}, seed=1)
        orchestrator = Orchestrator(fleet)
        huge = Pipeline([Module("blob", fn=lambda x: x, size_bytes=10**9)], name="huge")
        result = _place_on_fleet(orchestrator, huge)
        assert result["placed"] == 0 and result["failed"] == 5

    def test_update_may_use_the_bytes_it_replaces(self):
        # Regression: placement checked the new size against *free* flash
        # while EdgeDevice.install replaces a same-id artifact and counts the
        # bytes it frees, so every OTA update of a model filling more than
        # half of what was left was refused "insufficient storage".  The
        # storage check now lives in ``place`` itself; this drives it there.
        fleet = Fleet.random(1, mix={"mcu-m0": 1.0}, seed=1)
        device = next(iter(fleet))
        device.install(InstalledArtifact("filler", "1", size_bytes=device.free_flash() - 7134))
        orchestrator = Orchestrator(fleet)

        def release(version: str, size: int) -> Pipeline:
            return Pipeline([Module("clf", fn=lambda x: x, size_bytes=size)], name="wake", version=version)

        assert orchestrator.place(release("v1", 4756), [device.device_id])[0].placed
        assert device.free_flash() == 2378
        update = orchestrator.place(release("v2", 4756), [device.device_id])[0]  # free < size <= free + replaced
        assert update.placed and device.installed["wake"].version == "v2"
        assert device.free_flash() == 2378
        grown = orchestrator.place(release("v3", 7134), [device.device_id])[0]  # exactly free + replaced
        assert grown.placed and device.free_flash() == 0
        too_large = orchestrator.place(release("v4", 7135), [device.device_id])[0]
        assert not too_large.placed and too_large.reason == "insufficient storage"
        assert device.installed["wake"].version == "v3" and device.free_flash() == 0
        other = orchestrator.place(Pipeline([Module("m", fn=lambda x: x, size_bytes=1)], name="other"), [device.device_id])[0]
        assert not other.placed  # a different artifact id replaces nothing

    def test_capability_constraint_blocks_placement(self, trained_mlp):
        fleet = Fleet.random(3, seed=2)
        orchestrator = Orchestrator(fleet)
        for device in fleet:
            orchestrator.grant_capabilities(device.device_id, (Capability.COMPUTE,))
        needs_network = Pipeline(
            [Module("uplink", fn=lambda x: x, requires=frozenset({Capability.NETWORK}))], name="uplink"
        )
        result = _place_on_fleet(orchestrator, needs_network)
        assert result["placed"] == 0

    def test_capability_grant_decides_placement_per_device(self, trained_mlp):
        fleet = Fleet.random(3, seed=11)
        orchestrator = Orchestrator(fleet)
        granted, denied, unrestricted = [d.device_id for d in fleet]
        orchestrator.grant_capabilities(granted, (Capability.COMPUTE, Capability.NETWORK))
        orchestrator.grant_capabilities(denied, (Capability.COMPUTE,))
        pipeline = Pipeline(
            [model_module(trained_mlp), Module("uplink", fn=lambda x: x, requires=frozenset({Capability.NETWORK}))],
            name="uplink-clf",
        )
        decisions = {d.device_id: d for d in orchestrator.place(pipeline, [granted, denied, unrestricted])}
        assert decisions[granted].placed and decisions[unrestricted].placed  # no sandbox: unrestricted
        assert not decisions[denied].placed
        assert decisions[denied].reason == "missing capabilities: ['network']"
        assert "uplink-clf" not in fleet.get(denied).installed

    def test_placement_records_the_manifest_on_the_device(self, trained_mlp):
        fleet = Fleet.random(2, seed=9)
        pipeline = Pipeline([model_module(trained_mlp), argmax_module()], name="wake", version="2.0")
        Orchestrator(fleet).place(pipeline, [d.device_id for d in fleet])
        for device in fleet:
            artifact = device.installed["wake"]
            assert artifact.version == "2.0" and artifact.size_bytes == pipeline.size_bytes()
            assert artifact.metadata == pipeline.manifest()

    def test_one_placement_shares_one_immutable_artifact(self, trained_mlp):
        fleet = Fleet.random(2, seed=9)
        first, second = fleet
        flash = [first.free_flash(), second.free_flash()]
        pipeline = Pipeline([model_module(trained_mlp), argmax_module()], name="wake", version="1.0")
        Orchestrator(fleet).place(pipeline, [first.device_id, second.device_id])
        shared = first.installed["wake"]
        assert second.installed["wake"] is shared
        with pytest.raises(AttributeError):
            shared.version = "tampered"
        # An update of one device installs a new object; the other keeps its own.
        update = Pipeline([Module("clf", fn=lambda x: x, size_bytes=64)], name="wake", version="2.0")
        assert Orchestrator(fleet).place(update, [first.device_id])[0].placed
        assert first.installed["wake"].version == "2.0" and first.free_flash() == flash[0] - 64
        assert second.installed["wake"] is shared and shared.version == "1.0"
        assert list(second.installed) == ["wake"] and second.free_flash() == flash[1] - pipeline.size_bytes()


class TestOffloading:
    def test_marketplace_prefers_fast_local_server(self):
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("edge", get_profile("edge-server"), 0.01, NetworkCondition.of(NetworkType.WIFI)))
        market.register_bid(OffloadBid("cloud", get_profile("cloud"), 0.001, NetworkCondition.of(NetworkType.CELLULAR)))
        decision = market.place_workload(flops=1e9, payload_bytes=5e6, objective="latency")
        assert decision.device_id == "edge"

    def test_marketplace_price_objective_and_payouts(self):
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("cheap", get_profile("phone-flagship"), 0.001, NetworkCondition.of(NetworkType.WIFI)))
        market.register_bid(OffloadBid("pricey", get_profile("edge-server"), 1.0, NetworkCondition.of(NetworkType.WIFI)))
        decision = market.place_workload(flops=1e9, payload_bytes=1e4, objective="price")
        assert decision.device_id == "cheap"
        assert "cheap" in market.payouts()

    def test_marketplace_skips_offline_bidders(self):
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("island", get_profile("edge-server"), 0.01, NetworkCondition.of(NetworkType.OFFLINE)))
        assert market.place_workload(1e9, 1e4) is None

    def test_split_search_bounds(self, trained_cnn):
        graph = from_sequential(trained_cnn)
        decision = find_best_split(graph, get_profile("mcu-m4"), get_profile("cloud"), NetworkCondition.of(NetworkType.CELLULAR))
        assert -1 <= decision.split_after < len(graph)
        assert decision.total_latency_s <= decision.all_edge_latency_s + 1e-12
        assert decision.total_latency_s <= decision.all_cloud_latency_s + 1e-12

    def test_split_prefers_edge_when_offline_ish(self, trained_cnn):
        graph = from_sequential(trained_cnn)
        slow = NetworkCondition.of(NetworkType.LPWAN)
        decision = find_best_split(graph, get_profile("phone-flagship"), get_profile("cloud"), slow)
        # With a very slow uplink, running everything on a capable edge device wins.
        assert decision.split_after == len(graph) - 1
