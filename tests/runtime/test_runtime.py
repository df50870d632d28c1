"""Tests for modules, sandbox, pipelines, orchestration and offloading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import Fleet, InstalledArtifact, NetworkCondition, NetworkType, get_profile
from repro.exchange import Compiler, from_sequential
from repro.nn import make_mlp
from repro.runtime import (
    Capability,
    ConditionalStage,
    Module,
    OffloadBid,
    OffloadMarketplace,
    Orchestrator,
    Pipeline,
    RolloutPlan,
    Sandbox,
    SandboxViolation,
    argmax_module,
    find_best_split,
    graph_module,
    model_module,
    normalize_module,
    softmax_module,
    threshold_module,
)


class TestModulesAndSandbox:
    def test_normalize_module(self, rng):
        x = rng.normal(loc=5.0, scale=2.0, size=(100, 4))
        module = normalize_module(mean=x.mean(axis=0), std=x.std(axis=0))
        out = module(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)

    def test_threshold_and_argmax(self):
        assert threshold_module(0.5)(np.array([0.2, 0.7])).tolist() == [0.0, 1.0]
        assert argmax_module()(np.array([[0.1, 0.9], [0.8, 0.2]])).tolist() == [1, 0]

    def test_softmax_module_normalizes(self, rng):
        out = softmax_module()(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_model_module_matches_model(self, trained_mlp, blobs):
        _, test = blobs
        module = model_module(trained_mlp)
        np.testing.assert_allclose(module(test.x[:8]), trained_mlp.forward(test.x[:8]))
        assert module.size_bytes == trained_mlp.num_params() * 4

    def test_graph_module_matches_compiled_graph(self, trained_mlp, blobs):
        _, test = blobs
        artifact = Compiler().compile(from_sequential(trained_mlp), get_profile("phone-mid"), bits=8)
        module = graph_module(artifact.graph)
        ref = trained_mlp.forward(test.x[:16]).argmax(axis=1)
        assert np.mean(module(test.x[:16]).argmax(axis=1) == ref) > 0.9

    def test_module_digest_changes_with_capabilities(self):
        a = Module("m", fn=lambda x: x)
        b = Module("m", fn=lambda x: x, requires=frozenset({Capability.COMPUTE, Capability.NETWORK}))
        assert a.digest() != b.digest()

    def test_sandbox_blocks_missing_capability(self, rng):
        camera_module = Module("camera-reader", fn=lambda x: x, requires=frozenset({Capability.SENSOR_CAMERA}))
        sandbox = Sandbox(granted=(Capability.COMPUTE,), device_id="dev-1")
        assert not sandbox.can_run(camera_module)
        with pytest.raises(SandboxViolation):
            sandbox.run(camera_module, rng.normal(size=(2, 2)))

    def test_sandbox_allows_and_logs(self, rng):
        sandbox = Sandbox(granted=(Capability.COMPUTE,))
        sandbox.run(normalize_module(), rng.normal(size=(3, 2)))
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
        pipeline = Pipeline([normalize_module(), model_module(trained_mlp)], name="p")
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


class TestOrchestration:
    def test_place_everywhere_on_capable_fleet(self, trained_mlp):
        fleet = Fleet.random(25, seed=5)
        orchestrator = Orchestrator(fleet)
        pipeline = Pipeline([model_module(trained_mlp)], name="wake")
        result = orchestrator.place_everywhere(pipeline)
        assert result["placed"] == 25
        assert orchestrator.coverage("wake") == 1.0

    def test_storage_constraint_blocks_placement(self):
        fleet = Fleet.random(5, mix={"mcu-m0": 1.0}, seed=1)
        orchestrator = Orchestrator(fleet)
        huge = Pipeline([Module("blob", fn=lambda x: x, size_bytes=10**9)], name="huge")
        result = orchestrator.place_everywhere(huge)
        assert result["placed"] == 0 and result["failed"] == 5

    def test_update_may_use_the_bytes_it_replaces(self):
        # Regression: can_place checked the new size against *free* flash
        # while EdgeDevice.install replaces a same-id artifact and counts the
        # bytes it frees, so every OTA update of a model filling more than
        # half of what was left was refused "insufficient storage".
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
        result = orchestrator.place_everywhere(needs_network)
        assert result["placed"] == 0

    def test_rollout_completes_when_healthy(self, trained_mlp):
        fleet = Fleet.random(20, seed=3)
        orchestrator = Orchestrator(fleet)
        plan = RolloutPlan(orchestrator, Pipeline([model_module(trained_mlp)], name="v2", version="2.0"), stages=[0.1, 0.5, 1.0])
        outcome = plan.execute(lambda devices: True)
        assert outcome["status"] == "completed" and outcome["updated_devices"] == 20

    def test_rollout_rolls_back_on_bad_canary(self, trained_mlp):
        fleet = Fleet.random(20, seed=4)
        orchestrator = Orchestrator(fleet)
        old = Pipeline([model_module(trained_mlp)], name="wake", version="1.0")
        orchestrator.place_everywhere(old)
        new = Pipeline([model_module(trained_mlp)], name="wake-v2", version="2.0")
        plan = RolloutPlan(orchestrator, new, previous_pipeline=old, stages=[0.1, 1.0])
        outcome = plan.execute(lambda devices: False)
        assert outcome["status"] == "rolled_back"
        assert orchestrator.devices_running("wake-v2") == []


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


class TestBatchedPipelineExecution:
    def test_run_many_matches_per_window_run(self, trained_mlp, blobs):
        _, test = blobs
        pipeline = Pipeline([model_module(trained_mlp), softmax_module(), argmax_module()], name="clf")
        windows = [test.x[:5], test.x[5:5], test.x[5:12], test.x[12:13]]
        outs = pipeline.run_many(windows)
        assert len(outs) == len(windows)
        for w, out in zip(windows, outs):
            np.testing.assert_array_equal(out, pipeline.run(w))

    def test_run_many_through_compiled_graph_module(self, trained_mlp, blobs):
        _, test = blobs
        artifact = Compiler().compile(from_sequential(trained_mlp), get_profile("phone-mid"), bits=8)
        pipeline = Pipeline([graph_module(artifact.graph), argmax_module()], name="compiled-clf")
        windows = [test.x[:7], test.x[7:10]]
        outs = pipeline.run_many(windows)
        for w, out in zip(windows, outs):
            np.testing.assert_array_equal(out, pipeline.run(w))

    def test_run_many_all_empty_windows(self, trained_mlp):
        pipeline = Pipeline([model_module(trained_mlp)], name="clf")
        outs = pipeline.run_many([np.empty((0, 12)), np.empty((0, 12))])
        assert all(o.shape == (0, 4) for o in outs)

    def test_broadcast_runs_hosting_devices_in_one_sweep(self, trained_mlp, blobs):
        _, test = blobs
        fleet = Fleet.random(8, seed=9)
        orchestrator = Orchestrator(fleet)
        pipeline = Pipeline([model_module(trained_mlp), argmax_module()], name="wake")
        orchestrator.place_everywhere(pipeline)
        device_ids = [d.device_id for d in fleet]
        inputs = {d: test.x[i * 3 : i * 3 + 3] for i, d in enumerate(device_ids)}
        outputs = orchestrator.broadcast(pipeline, inputs)
        assert set(outputs) == set(device_ids)
        for d in device_ids:
            np.testing.assert_array_equal(outputs[d], pipeline.run(inputs[d]))

    def test_broadcast_skips_devices_without_capabilities_or_input(self, trained_mlp, blobs):
        _, test = blobs
        fleet = Fleet.random(4, seed=11)
        orchestrator = Orchestrator(fleet)
        needs_net = Module("uplink", fn=lambda x: x, requires=frozenset({Capability.NETWORK}))
        pipeline = Pipeline([model_module(trained_mlp), needs_net], name="uplink-clf")
        orchestrator.place_everywhere(pipeline)
        ids = [d.device_id for d in fleet]
        granted, denied, no_input = ids[0], ids[1], ids[2]
        orchestrator.grant_capabilities(granted, (Capability.COMPUTE, Capability.NETWORK))
        orchestrator.grant_capabilities(denied, (Capability.COMPUTE,))
        inputs = {d: test.x[:2] for d in ids if d != no_input}
        outputs = orchestrator.broadcast(pipeline, inputs)
        assert granted in outputs and ids[3] in outputs  # no sandbox: unrestricted
        assert denied not in outputs and no_input not in outputs

    def test_run_many_falls_back_for_data_dependent_quantization(self, trained_mlp, blobs):
        """Stacking must never let one window's data change another's logits."""
        from repro.exchange import PassPipeline, annotate_quantization, from_sequential

        _, test = blobs
        graph = annotate_quantization(
            PassPipeline.standard_inference().run(from_sequential(trained_mlp)),
            bits=8,
            activation_bits=8,
        )
        pipeline = Pipeline([graph_module(graph)], name="actquant")
        assert not pipeline.stackable()
        windows = [test.x[:4], 50.0 * test.x[4:8]]  # second window would skew shared stats
        outs = pipeline.run_many(windows)
        for w, out in zip(windows, outs):
            np.testing.assert_array_equal(out, pipeline.run(w))

    def test_broadcast_preserves_sandbox_audit_log(self, trained_mlp, blobs):
        _, test = blobs
        fleet = Fleet.random(2, seed=13)
        orchestrator = Orchestrator(fleet)
        pipeline = Pipeline([model_module(trained_mlp), argmax_module()], name="audited")
        orchestrator.place_everywhere(pipeline)
        ids = [d.device_id for d in fleet]
        sandbox = orchestrator.grant_capabilities(ids[0], (Capability.COMPUTE,))
        outputs = orchestrator.broadcast(pipeline, {d: test.x[:3] for d in ids})
        assert set(outputs) == set(ids)
        assert [e["module"] for e in sandbox.execution_log] == ["fixture_mlp", "argmax"]
        assert all(e["n"] == 3 for e in sandbox.execution_log)

    def test_run_many_cascade_falls_back_to_per_window(self, trained_mlp, blobs):
        """Cascade predicates may be batch-dependent (e.g. median-based), so
        cascades are non-stackable by default and run window by window."""
        train, test = blobs
        small = make_mlp(12, 4, hidden=(4,), seed=51)
        small.fit(train.x, train.y, epochs=1, lr=0.02)
        cascade = Pipeline(
            [
                ConditionalStage(
                    "escalate",
                    predicate=lambda x: np.linalg.norm(x, axis=1) < np.median(np.linalg.norm(x, axis=1)),
                    if_true=Pipeline([model_module(small)], name="cheap"),
                    if_false=Pipeline([model_module(trained_mlp)], name="accurate"),
                ),
            ],
            name="cascade",
        )
        assert not cascade.stackable()
        windows = [test.x[:6], np.empty((0, 12)), test.x[6:16]]
        outs = cascade.run_many(windows)
        assert outs[1].shape == (0, 4)
        np.testing.assert_array_equal(outs[0], cascade.run(windows[0]))
        np.testing.assert_array_equal(outs[2], cascade.run(windows[2]))

    def test_broadcast_mixed_sandboxed_and_free_devices(self, trained_mlp, blobs):
        _, test = blobs
        fleet = Fleet.random(3, seed=17)
        orchestrator = Orchestrator(fleet)
        pipeline = Pipeline([model_module(trained_mlp)], name="mixed")
        orchestrator.place_everywhere(pipeline)
        ids = [d.device_id for d in fleet]
        sandbox = orchestrator.grant_capabilities(ids[1], (Capability.COMPUTE,))
        inputs = {d: test.x[i * 2 : i * 2 + 2] for i, d in enumerate(ids)}
        outputs = orchestrator.broadcast(pipeline, inputs)
        assert set(outputs) == set(ids)
        for d in ids:
            np.testing.assert_array_equal(outputs[d], pipeline.run(inputs[d]))
        # the sandboxed device's execution went through its own Sandbox
        assert [e["module"] for e in sandbox.execution_log] == ["fixture_mlp"]
