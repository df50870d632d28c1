"""Tests for the graph IR, executor, passes, compatibility checking and compiler."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.devices import get_profile
from repro.exchange import (
    CompatibilityChecker,
    CompilationError,
    Compiler,
    GraphExecutor,
    GraphIR,
    GraphNode,
    PassPipeline,
    annotate_quantization,
    eliminate_dropout,
    execute_graph,
    expand_fused_activations,
    fold_batchnorm,
    from_sequential,
    fuse_activations,
    graph_cost,
    infer_shape,
    insert_postprocessing,
    insert_preprocessing,
    memory_plan,
    op_flops,
    per_node_cost,
    split_point_costs,
)


class TestGraphIR:
    def test_export_preserves_semantics(self, trained_mlp, blobs):
        _, test = blobs
        graph = from_sequential(trained_mlp)
        out = execute_graph(graph, test.x[:32])
        np.testing.assert_allclose(out, trained_mlp.forward(test.x[:32]), atol=1e-10)

    def test_export_cnn_preserves_semantics(self, trained_cnn, digits):
        _, test = digits
        graph = from_sequential(trained_cnn)
        out = execute_graph(graph, test.x[:8])
        np.testing.assert_allclose(out, trained_cnn.forward(test.x[:8]), atol=1e-8)

    def test_shapes_and_param_count(self, trained_mlp):
        graph = from_sequential(trained_mlp)
        assert graph.output_shape() == (4,)
        assert graph.param_count() == trained_mlp.num_params()

    def test_duplicate_node_names_rejected(self):
        nodes = [GraphNode("a", "relu"), GraphNode("a", "relu")]
        with pytest.raises(ValueError):
            GraphIR(nodes, (4,))

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            GraphIR([GraphNode("a", "teleport")], (4,))

    def test_serialization_roundtrip(self, trained_mlp, blobs):
        _, test = blobs
        graph = from_sequential(trained_mlp)
        restored = GraphIR.from_bytes(graph.to_bytes())
        np.testing.assert_allclose(execute_graph(restored, test.x[:8]), execute_graph(graph, test.x[:8]))

    def test_fingerprint_changes_with_weights(self, trained_mlp):
        g1 = from_sequential(trained_mlp)
        g2 = g1.clone()
        g2.nodes[0].params["W"] = g2.nodes[0].params["W"] + 1.0
        assert g1.fingerprint() != g2.fingerprint()

    def test_fingerprint_deterministic(self, trained_mlp):
        assert from_sequential(trained_mlp).fingerprint() == from_sequential(trained_mlp).fingerprint()

    def test_size_bytes_respects_bits(self, trained_mlp):
        graph = from_sequential(trained_mlp)
        q = annotate_quantization(graph, bits=8)
        assert q.size_bytes() < graph.size_bytes()

    def test_summary_contains_ops(self, trained_mlp):
        text = from_sequential(trained_mlp).summary()
        assert "dense" in text


class TestOps:
    def test_infer_shapes(self):
        assert infer_shape("dense", (16,), {"units": 8}) == (8,)
        assert infer_shape("conv2d", (8, 8, 3), {"filters": 4, "kernel_size": 3, "padding": "same"}) == (8, 8, 4)
        assert infer_shape("maxpool2d", (8, 8, 4), {"pool_size": 2}) == (4, 4, 4)
        assert infer_shape("flatten", (4, 4, 2), {}) == (32,)
        assert infer_shape("global_avgpool2d", (4, 4, 2), {}) == (2,)

    def test_op_flops_dense(self):
        assert op_flops("dense", (16,), (8,), {"units": 8}) == 2 * 16 * 8

    def test_unknown_op(self):
        with pytest.raises(KeyError):
            infer_shape("warp", (4,))


class TestPasses:
    def test_fold_batchnorm_preserves_output(self, trained_cnn, digits):
        _, test = digits
        graph = from_sequential(trained_cnn)
        folded = fold_batchnorm(graph)
        assert "batchnorm" not in folded.op_types()
        np.testing.assert_allclose(
            execute_graph(folded, test.x[:8]), execute_graph(graph, test.x[:8]), atol=1e-8
        )

    def test_fuse_and_expand_roundtrip(self, trained_mlp, blobs):
        _, test = blobs
        graph = from_sequential(trained_mlp)
        fused = fuse_activations(graph)
        assert len(fused) < len(graph)
        expanded = expand_fused_activations(fused)
        np.testing.assert_allclose(
            execute_graph(expanded, test.x[:8]), execute_graph(graph, test.x[:8]), atol=1e-10
        )

    def test_eliminate_dropout(self):
        nodes = [GraphNode("d", "dense", {"units": 4}, {"W": np.zeros((4, 4))}), GraphNode("drop", "dropout")]
        graph = GraphIR(nodes, (4,))
        assert "dropout" not in eliminate_dropout(graph).op_types()

    def test_quantization_annotation(self, trained_mlp):
        graph = from_sequential(trained_mlp)
        q = annotate_quantization(graph, bits=4, per_channel=True)
        bits = {n.attrs.get("bits") for n in q.nodes if n.params}
        assert bits == {4}
        with pytest.raises(ValueError):
            annotate_quantization(graph, bits=3)

    def test_quantized_graph_accuracy_at_8bit(self, trained_mlp, blobs):
        _, test = blobs
        graph = PassPipeline.standard_inference().run(from_sequential(trained_mlp))
        q = annotate_quantization(graph, bits=8)
        ref = trained_mlp.forward(test.x).argmax(axis=1)
        out = execute_graph(expand_fused_activations(q), test.x).argmax(axis=1)
        assert np.mean(ref == out) > 0.98

    def test_pre_and_post_processing(self, trained_mlp, blobs):
        _, test = blobs
        graph = from_sequential(trained_mlp)
        wrapped = insert_postprocessing(insert_preprocessing(graph, mean=0.0, std=1.0), kind="softmax")
        out = execute_graph(wrapped, test.x[:4])
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_standard_pipeline_records_passes(self, trained_cnn):
        graph = PassPipeline.standard_inference().run(from_sequential(trained_cnn))
        assert "fold_batchnorm" in graph.metadata["passes"]


class TestAnalysis:
    def test_graph_cost_keys_and_positivity(self, trained_cnn):
        cost = graph_cost(from_sequential(trained_cnn))
        assert cost["flops"] > 0 and cost["size_bytes"] > 0 and cost["peak_activation_bytes"] > 0

    def test_quantization_reduces_size(self, trained_mlp):
        graph = from_sequential(trained_mlp)
        assert graph_cost(annotate_quantization(graph, 8))["size_bytes"] < graph_cost(graph)["size_bytes"]

    def test_memory_plan_arena_at_least_largest_node(self, trained_cnn):
        graph = from_sequential(trained_cnn)
        plan = memory_plan(graph)
        per_node = per_node_cost(graph)
        assert plan["arena_bytes"] >= max(r["output_bytes"] for r in per_node)

    def test_split_point_costs_monotone_edge_flops(self, trained_cnn):
        rows = split_point_costs(from_sequential(trained_cnn))
        edge = [r["edge_flops"] for r in rows]
        assert edge == sorted(edge)
        assert rows[0]["split_after"] == -1


class TestCompatibilityAndCompiler:
    def test_mcu_m0_rejects_conv(self, trained_cnn):
        checker = CompatibilityChecker()
        report = checker.check(from_sequential(trained_cnn), get_profile("mcu-m0"))
        assert not report.compatible
        assert "unsupported_op" in report.issue_kinds()

    def test_server_accepts_everything(self, trained_cnn):
        checker = CompatibilityChecker()
        report = checker.check(from_sequential(trained_cnn), get_profile("edge-server"))
        assert report.compatible

    def test_flash_limit_detected(self, blobs):
        from repro.nn import make_mlp

        big = make_mlp(12, 4, hidden=(512, 512, 256), seed=0)
        tiny_profile = dataclasses.replace(get_profile("mcu-m0"), flash_bytes=1024, supported_ops=frozenset({"dense", "relu"}))
        report = CompatibilityChecker().check(from_sequential(big), tiny_profile)
        assert "flash" in report.issue_kinds()

    def test_coverage_fraction(self, trained_mlp):
        checker = CompatibilityChecker()
        profiles = [get_profile(n) for n in ("mcu-m0", "mcu-m4", "phone-mid", "edge-server")]
        frac = checker.fleet_coverage_fraction(from_sequential(trained_mlp), profiles)
        assert 0.0 < frac <= 1.0

    def test_compiler_selects_supported_bits(self, trained_mlp):
        artifact = Compiler().compile(from_sequential(trained_mlp), get_profile("mcu-m0"), bits=4)
        assert artifact.bits == 8  # mcu-m0 only has 8-bit kernels

    def test_select_bits_prefers_request_then_closest_narrower_then_widest(self):
        select = Compiler().select_bits
        assert select(get_profile("phone-mid"), 16) == 16  # supported: kept
        assert select(get_profile("mcu-m4"), 16) == 8  # widest supported width under the request
        assert select(get_profile("phone-mid"), 4) == 8  # nothing narrower: smallest supported
        assert select(get_profile("phone-mid")) == 32 and select(get_profile("sensor-dsp")) == 8
        wide_only = dataclasses.replace(get_profile("cloud"), supported_bitwidths=frozenset({64}))
        assert select(wide_only) == 32 and select(wide_only, 8) == 32

    def test_compiler_raises_on_unsupported(self, trained_cnn):
        with pytest.raises(CompilationError):
            Compiler().compile(from_sequential(trained_cnn), get_profile("mcu-m0"))

    def test_compiler_non_strict_returns_artifact(self, trained_cnn):
        artifact = Compiler().compile(from_sequential(trained_cnn), get_profile("mcu-m0"), strict=False)
        assert not artifact.report.compatible

    def test_compile_for_fleet(self, trained_mlp):
        profiles = [get_profile(n) for n in ("mcu-m4", "phone-mid", "edge-server")]
        artifacts, failures = Compiler().compile_for_fleet(from_sequential(trained_mlp), profiles)
        assert len(artifacts) == 3 and not failures

    def test_compiled_artifact_semantics_preserved(self, trained_mlp, blobs):
        _, test = blobs
        artifact = Compiler().compile(from_sequential(trained_mlp), get_profile("phone-mid"), bits=8)
        out = execute_graph(expand_fused_activations(artifact.graph), test.x)
        ref = trained_mlp.forward(test.x)
        assert np.mean(out.argmax(1) == ref.argmax(1)) > 0.98

    def test_artifact_describe(self, trained_mlp):
        artifact = Compiler().compile(from_sequential(trained_mlp), get_profile("phone-mid"))
        desc = artifact.describe()
        assert desc["target"] == "phone-mid" and desc["size_kb"] > 0
