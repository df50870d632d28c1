"""Differential tests: CompiledExecutor vs reference GraphExecutor vs nn forward.

The compiled engine must be a drop-in replacement for the reference
interpreter on every architecture the zoo can produce, with and without
quantization annotations.  The reference executor (over re-expanded fused
activations) is the semantic oracle throughout.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.exchange import (
    CompiledExecutor,
    FleetExecutor,
    GraphExecutor,
    GraphIR,
    GraphNode,
    PassPipeline,
    annotate_quantization,
    expand_fused_activations,
    from_sequential,
    insert_postprocessing,
    insert_preprocessing,
)
from repro.exchange.executor import _fake_quantize
from repro.nn import (
    make_autoencoder,
    make_depthwise_cnn,
    make_mlp,
    make_multi_fidelity_family,
    make_tiny_cnn,
)

RNG = np.random.default_rng(42)


def _zoo():
    """Every zoo architecture with a matching input batch."""
    cases = [
        (make_mlp(12, 4, hidden=(16, 8), seed=0), RNG.normal(size=(17, 12))),
        (make_mlp(10, 3, hidden=(8,), dropout=0.3, seed=1), RNG.normal(size=(9, 10))),
        (make_tiny_cnn((12, 12, 1), 10, filters=(4, 8), dense_width=16, seed=2), RNG.normal(size=(6, 12, 12, 1))),
        (make_tiny_cnn((8, 8, 2), 3, filters=(4,), use_batchnorm=False, seed=3), RNG.normal(size=(5, 8, 8, 2))),
        (make_depthwise_cnn((16, 16, 1), 4, blocks=2, seed=4), RNG.normal(size=(4, 16, 16, 1))),
        (make_autoencoder(10, bottleneck=3, hidden=12, seed=5), RNG.normal(size=(11, 10))),
    ]
    for model in make_multi_fidelity_family(6, 3, seed=6).values():
        cases.append((model, RNG.normal(size=(7, 6))))
    return cases


ZOO = _zoo()
ZOO_IDS = [m.name for m, _ in ZOO]


class TestDifferentialGolden:
    @pytest.mark.parametrize("model,x", ZOO, ids=ZOO_IDS)
    def test_matches_model_forward_fp32(self, model, x):
        """Exported graph, compiled plan and nn forward agree in fp32."""
        graph = from_sequential(model)
        expected = model.forward(x, training=False)
        np.testing.assert_allclose(GraphExecutor(graph).run(x), expected, atol=1e-10)
        np.testing.assert_allclose(CompiledExecutor(graph).run(x), expected, atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("model,x", ZOO, ids=ZOO_IDS)
    def test_matches_reference_after_lowering(self, model, x):
        """Compiled fused graphs equal the re-expanded reference execution."""
        lowered = PassPipeline.standard_inference().run(from_sequential(model))
        ref = GraphExecutor(expand_fused_activations(lowered)).run(x)
        np.testing.assert_allclose(CompiledExecutor(lowered).run(x), ref, atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("model,x", ZOO, ids=ZOO_IDS)
    @pytest.mark.parametrize(
        "quant",
        [
            dict(bits=8),
            dict(bits=4, per_channel=True),
            dict(bits=8, scheme="asymmetric"),
            dict(bits=8, activation_bits=8),
        ],
        ids=["int8", "int4-perchannel", "int8-asym", "int8-actquant"],
    )
    def test_matches_reference_quantized(self, model, x, quant):
        """Quantization annotations produce identical outputs on both engines."""
        lowered = annotate_quantization(
            PassPipeline.standard_inference().run(from_sequential(model)), **quant
        )
        ref = GraphExecutor(expand_fused_activations(lowered)).run(x)
        np.testing.assert_allclose(CompiledExecutor(lowered).run(x), ref, atol=1e-9, rtol=1e-9)

    def test_pre_and_postprocessing_nodes(self):
        model = make_mlp(6, 3, hidden=(8,), seed=9)
        graph = insert_postprocessing(
            insert_preprocessing(from_sequential(model), mean=0.5, std=2.0), kind="softmax"
        )
        x = RNG.normal(size=(12, 6))
        np.testing.assert_allclose(
            CompiledExecutor(graph).run(x), GraphExecutor(graph).run(x), atol=1e-9, rtol=1e-9
        )

    def test_misc_ops_kernels(self):
        """Ops not emitted by from_sequential (add/mul/threshold/argmax/...)."""
        nodes = [
            GraphNode("norm", "normalize", {"mean": 1.0, "std": 2.0}),
            GraphNode("mul", "mul", {"constant": 3.0}),
            GraphNode("add", "add", {"constant": -0.5}),
            GraphNode("quant", "quantize", {"bits": 8}),
            GraphNode("deq", "dequantize"),
            GraphNode("thr", "threshold", {"value": 0.1}),
            GraphNode("arg", "argmax"),
        ]
        graph = GraphIR(nodes, (5,))
        x = RNG.normal(size=(13, 5))
        np.testing.assert_allclose(CompiledExecutor(graph).run(x), GraphExecutor(graph).run(x))

    def test_reshape_and_avgpool(self):
        nodes = [
            GraphNode("reshape", "reshape", {"shape": (4, 4, 2)}),
            GraphNode("pool", "avgpool2d", {"pool_size": 2}),
            GraphNode("flat", "flatten"),
        ]
        graph = GraphIR(nodes, (32,))
        x = RNG.normal(size=(7, 32))
        np.testing.assert_allclose(
            CompiledExecutor(graph).run(x), GraphExecutor(graph).run(x), atol=1e-12
        )


class TestRunMany:
    def _plan_and_ref(self, quant=None):
        model = make_tiny_cnn((10, 10, 1), 4, filters=(4,), dense_width=8, seed=7)
        lowered = PassPipeline.standard_inference().run(from_sequential(model))
        if quant:
            lowered = annotate_quantization(lowered, **quant)
        return CompiledExecutor(lowered), GraphExecutor(expand_fused_activations(lowered))

    def test_stacked_windows_match_per_window_reference(self):
        plan, ref = self._plan_and_ref(dict(bits=8))
        windows = [RNG.normal(size=(n, 10, 10, 1)) for n in (3, 1, 5, 2)]
        outs = plan.run_many(windows)
        assert len(outs) == len(windows)
        for w, out in zip(windows, outs):
            np.testing.assert_allclose(out, ref.run(w), atol=1e-9, rtol=1e-9)

    def test_empty_windows_and_empty_list(self):
        plan, _ = self._plan_and_ref()
        assert plan.run_many([]) == []
        windows = [np.empty((0, 10, 10, 1)), RNG.normal(size=(2, 10, 10, 1)), np.empty((0, 10, 10, 1))]
        outs = plan.run_many(windows)
        assert outs[0].shape == (0, 4) and outs[2].shape == (0, 4)
        assert outs[1].shape == (2, 4)

    def test_activation_quant_windows_keep_per_window_statistics(self):
        """Data-dependent quantization must not leak across stacked windows."""
        plan, ref = self._plan_and_ref(dict(bits=8, activation_bits=8))
        assert not plan.stacking_exact
        windows = [RNG.normal(size=(2, 10, 10, 1)), 100.0 * RNG.normal(size=(2, 10, 10, 1))]
        outs = plan.run_many(windows)
        for w, out in zip(windows, outs):
            np.testing.assert_allclose(out, ref.run(w), atol=1e-9, rtol=1e-9)


    def test_chunked_run_equals_single_batch(self):
        model = make_mlp(8, 3, hidden=(6,), seed=11)
        graph = from_sequential(model)
        x = RNG.normal(size=(700, 8))
        small = CompiledExecutor(graph, chunk_size=64).run(x)
        np.testing.assert_allclose(small, CompiledExecutor(graph, chunk_size=10**9).run(x), atol=1e-12)
        np.testing.assert_allclose(small, model.forward(x), atol=1e-9, rtol=1e-9)

    def test_workspace_reuse_across_batch_sizes(self):
        plan, ref = self._plan_and_ref()
        for n in (4, 9, 4, 1):
            x = RNG.normal(size=(n, 10, 10, 1))
            np.testing.assert_allclose(plan.run(x), ref.run(x), atol=1e-9, rtol=1e-9)
        assert plan.workspace_bytes() > 0

    def test_outputs_detached_from_plan_buffers(self):
        """A later run must not corrupt results handed out earlier."""
        plan, _ = self._plan_and_ref()
        x1 = RNG.normal(size=(3, 10, 10, 1))
        out1 = plan.run(x1)
        snapshot = out1.copy()
        plan.run(RNG.normal(size=(3, 10, 10, 1)))
        np.testing.assert_array_equal(out1, snapshot)

    def test_empty_batch(self):
        plan, _ = self._plan_and_ref()
        assert plan.run(np.empty((0, 10, 10, 1))).shape == (0, 4)

    def test_gemm_recording(self):
        plan, _ = self._plan_and_ref()
        x = RNG.normal(size=(4, 10, 10, 1))
        out, gemms = plan.run(x, record_gemms=True)
        np.testing.assert_allclose(out, plan.run(x), atol=1e-12)
        assert len(gemms) == plan.n_gemm_steps == 3  # conv + 2 dense
        for a, b, c in gemms:
            np.testing.assert_allclose(a @ b, c, atol=1e-9, rtol=1e-9)


class TestPlanLifetime:
    @pytest.mark.parametrize("model,x", ZOO, ids=ZOO_IDS)
    def test_dropped_plan_is_freed_by_refcount(self, model, x):
        """The steps close over the plan's workspace, never the plan: a
        dropped plan goes at once, without the cycle collector."""
        lowered = PassPipeline.standard_inference().run(from_sequential(model))
        graphs = [from_sequential(model), annotate_quantization(lowered, bits=8, activation_bits=8)]
        gc.collect()
        gc.disable()
        try:
            for graph in graphs:
                plan = CompiledExecutor(graph, calibration_data=x)
                plan.run(x)
                freed = weakref.ref(plan)
                del plan
                assert freed() is None
        finally:
            gc.enable()


class TestActivationCalibration:
    """Satellite: calibrated static-range activation quantization makes
    ``activation_bits`` / ``quantize`` graphs stackable in ``run_many``."""

    def _quant_graph(self, **quant):
        model = make_tiny_cnn((10, 10, 1), 4, filters=(4,), dense_width=8, seed=7)
        lowered = PassPipeline.standard_inference().run(from_sequential(model))
        return annotate_quantization(lowered, **quant)

    def test_calibration_batch_reproduces_dynamic_oracle_bitwise(self):
        """Static ranges recorded on X equal X's own dynamic ranges, so the
        calibrated plan is bit-identical to the dynamic plan on X."""
        graph = self._quant_graph(bits=8, activation_bits=8)
        x = RNG.normal(size=(12, 10, 10, 1))
        dynamic = CompiledExecutor(graph).run(x)
        calibrated = CompiledExecutor(graph, calibration_data=x)
        assert calibrated.stacking_exact
        assert len(calibrated.quant_sites) == 3  # conv + 2 dense
        assert set(calibrated.activation_ranges) == set(calibrated.quant_sites)
        np.testing.assert_array_equal(calibrated.run(x), dynamic)

    def test_calibrated_run_many_stacks_exactly(self):
        graph = self._quant_graph(bits=8, activation_bits=8)
        cal = RNG.normal(size=(32, 10, 10, 1))
        plan = CompiledExecutor(graph, calibration_data=cal)
        windows = [RNG.normal(size=(n, 10, 10, 1)) for n in (3, 1, 5, 2)]
        outs = plan.run_many(windows)
        # Stacked execution must equal per-window static execution exactly —
        # no quantization statistics leak across windows any more.
        for w, out in zip(windows, outs):
            np.testing.assert_array_equal(out, plan.run(w))

    def test_static_vs_dynamic_error_bound(self):
        """Documented bound for one quant site: with a calibration range R
        covering the batch's own range M, each quantizer rounds with at most
        half its step, so |static(x) - dynamic(x)| <= (R + M) / (2 * qmax)
        elementwise (no clipping occurs when R >= M)."""
        from repro.optimize.quantization import static_fake_quantize

        x = RNG.normal(size=5000) * 3.0
        batch_max = float(np.abs(x).max())
        qmax = 2**7 - 1
        for calibrated_range in (batch_max, 1.5 * batch_max, 4.0 * batch_max):
            static = static_fake_quantize(x, 8, calibrated_range)
            dynamic = _fake_quantize(x, 8)
            bound = (calibrated_range + batch_max) / (2.0 * qmax) + 1e-12
            assert np.max(np.abs(static - dynamic)) <= bound
        # Exactly-covering calibration is bit-identical to the dynamic path.
        np.testing.assert_array_equal(static_fake_quantize(x, 8, batch_max), _fake_quantize(x, 8))
        # Out-of-range values clip to the calibrated grid's edges
        # (asymmetric signed grid: +qmax vs -(qmax+1) codes).
        narrow = static_fake_quantize(x, 8, batch_max / 2.0)
        scale = batch_max / 2.0 / qmax
        assert np.max(narrow) <= qmax * scale + 1e-12
        assert np.min(narrow) >= -(qmax + 1) * scale - 1e-12

    def test_quantize_node_graph_stackable_after_calibration(self):
        nodes = [
            GraphNode("mul", "mul", {"constant": 2.0}),
            GraphNode("quant", "quantize", {"bits": 8}),
        ]
        graph = GraphIR(nodes, (5,))
        cal = RNG.normal(size=(64, 5))
        plan = CompiledExecutor(graph, calibration_data=cal)
        assert plan.stacking_exact and plan.quant_sites == ["quant"]
        np.testing.assert_array_equal(plan.run(cal), CompiledExecutor(graph).run(cal))
        windows = [RNG.normal(size=(n, 5)) for n in (2, 4)]
        for w, out in zip(windows, plan.run_many(windows)):
            np.testing.assert_array_equal(out, plan.run(w))

    def test_unquantized_graph_calibration_is_noop(self):
        model = make_mlp(6, 3, hidden=(8,), seed=2)
        plan = CompiledExecutor(from_sequential(model))
        assert plan.calibrate_activations(RNG.normal(size=(4, 6))) == {}
        assert plan.stacking_exact

    def test_empty_calibration_batch_rejected(self):
        graph = self._quant_graph(bits=8, activation_bits=8)
        with pytest.raises(ValueError, match="calibration batch"):
            CompiledExecutor(graph, calibration_data=np.empty((0, 10, 10, 1)))

    def test_fleet_executor_calibration_passthrough(self):
        base = make_mlp(8, 4, hidden=(12,), seed=13)
        lowered = PassPipeline.standard_inference().run(from_sequential(base))
        graphs = {
            "fp32": lowered,
            "int8-act": annotate_quantization(lowered, bits=8, activation_bits=8),
        }
        cal = RNG.normal(size=(32, 8))
        fleet = FleetExecutor.from_graphs(graphs, calibration_data=cal)
        assert fleet.plans["int8-act"].stacking_exact
        inputs = {"a": RNG.normal(size=(3, 8)), "b": RNG.normal(size=(2, 8))}
        outputs = fleet.run_fleet({"a": "int8-act", "b": "fp32"}, inputs)
        np.testing.assert_array_equal(outputs["a"], fleet.plans["int8-act"].run(inputs["a"]))


class TestFleetExecutor:
    def _variants(self):
        base = make_mlp(8, 4, hidden=(12, 6), seed=13, name="fleet-base")
        lowered = PassPipeline.standard_inference().run(from_sequential(base))
        return base, {
            "fp32": lowered,
            "int8": annotate_quantization(lowered, bits=8),
            "int4": annotate_quantization(lowered, bits=4),
        }

    def test_heterogeneous_sweep_matches_reference(self):
        _, graphs = self._variants()
        fleet = FleetExecutor.from_graphs(graphs)
        device_ids = [f"dev-{i}" for i in range(12)]
        variants = list(graphs)
        assignments = {d: variants[i % 3] for i, d in enumerate(device_ids)}
        inputs = {d: RNG.normal(size=(1 + i % 4, 8)) for i, d in enumerate(device_ids)}
        outputs = fleet.run_fleet(assignments, inputs)
        assert set(outputs) == set(device_ids)
        refs = {name: GraphExecutor(expand_fused_activations(g)) for name, g in graphs.items()}
        for d in device_ids:
            np.testing.assert_allclose(
                outputs[d], refs[assignments[d]].run(inputs[d]), atol=1e-9, rtol=1e-9
            )

    def test_from_models_and_partial_coverage(self):
        from repro.optimize import QuantizationConfig, magnitude_prune, quantize_model

        base = make_mlp(6, 3, hidden=(8,), seed=17, name="m")
        models = {
            "fp32": base,
            "int8": quantize_model(base, QuantizationConfig(bits=8)),
            "pruned": magnitude_prune(base, 0.5),
        }
        pipeline = PassPipeline.standard_inference()
        fleet = FleetExecutor({name: CompiledExecutor(pipeline.run(from_sequential(m))) for name, m in models.items()})
        assignments = {"a": "fp32", "b": "pruned", "c": "int8", "ghost": "int8"}
        inputs = {"a": RNG.normal(size=(2, 6)), "b": RNG.normal(size=(3, 6)), "c": RNG.normal(size=(1, 6))}
        outputs = fleet.run_fleet(assignments, inputs)
        assert set(outputs) == {"a", "b", "c"}  # no input for "ghost"
        np.testing.assert_allclose(outputs["b"], models["pruned"].forward(inputs["b"]), atol=1e-9, rtol=1e-9)

    def test_unknown_variant_raises(self):
        _, graphs = self._variants()
        fleet = FleetExecutor.from_graphs(graphs)
        with pytest.raises(KeyError, match="warp9"):
            fleet.run_fleet({"d": "warp9"}, {"d": np.zeros((1, 8))})


class TestFakeQuantizeEdgeCases:
    """Satellite fix: integer zero-point, hi > lo guard, subnormals, bits=1."""

    def test_asymmetric_zero_point_is_integer_and_zero_exact(self):
        x = RNG.normal(size=200) * 3.0
        x[::7] = 0.0
        out = _fake_quantize(x, 8, symmetric=False)
        # real zero must be exactly representable (integer zero-point)
        assert np.all(out[::7] == 0.0)

    @pytest.mark.parametrize("c", [0.7, -1.3, 0.0, 42.0])
    def test_constant_tensors_survive_roundtrip(self, c):
        x = np.full(37, c)
        np.testing.assert_allclose(_fake_quantize(x, 8, symmetric=False), x, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(_fake_quantize(x, 8, symmetric=True), x, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_subnormal_inputs_stay_finite(self, symmetric):
        tiny = np.array([5e-324, 0.0, -5e-324, 3e-320])
        out = _fake_quantize(tiny, 8, symmetric=symmetric)
        assert np.all(np.isfinite(out))

    def test_bits_one(self):
        x = np.array([-2.0, -0.1, 0.0, 0.4, 3.0])
        sym = _fake_quantize(x, 1, symmetric=True)
        assert set(np.round(sym / 3.0, 12)) <= {-1.0, 0.0, 1.0}
        asym = _fake_quantize(x, 1, symmetric=False)
        assert len(np.unique(asym)) <= 2
        assert np.all(np.isfinite(asym))

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            _fake_quantize(np.ones(3), 0)
        x = RNG.normal(size=5)
        assert _fake_quantize(x, 32) is x

    def test_error_bounded_by_half_step_asymmetric(self):
        x = RNG.uniform(0.5, 4.0, size=300)  # all-positive: range nudged to include 0
        qmax = 2**8 - 1
        scale = (x.max() - 0.0) / qmax
        out = _fake_quantize(x, 8, symmetric=False)
        # rounded zero-point costs at most half a step on top of rounding
        assert np.max(np.abs(out - x)) <= scale * 1.0 + 1e-12


def test_dense_on_unflattened_input_rejected_at_compile_time():
    """The IR's dense shape inference assumes rank-1 input; refuse the rest."""
    nodes = [GraphNode("d", "dense", {"units": 3}, {"W": np.zeros((4, 3)), "b": np.zeros(3)})]
    graph = GraphIR(nodes, (2, 2, 1))
    with pytest.raises(NotImplementedError, match="flatten"):
        CompiledExecutor(graph)
