"""Tests for quantization, pruning, distillation, low-rank and Pareto search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import get_profile
from repro.nn import make_mlp
from repro.optimize import (
    QuantizationConfig,
    VariantGenerator,
    dense_rank_for_compression,
    dequantize_array,
    distill,
    factorize_dense_model,
    fake_quantize,
    magnitude_prune,
    pareto_front,
    quantize_array,
    quantize_model,
    soft_label_dataset,
    sparse_size_bytes,
    sparsity,
    structured_prune_dense,
)


class TestQuantization:
    def test_roundtrip_error_bounded_by_step(self, rng):
        x = rng.normal(size=256)
        q, scale, zero = quantize_array(x, bits=8)
        restored = dequantize_array(q, scale, zero)
        assert np.max(np.abs(restored - x)) <= scale * 0.5 + 1e-12

    def test_lower_bits_more_error(self, rng):
        x = rng.normal(size=512)
        errors = [np.mean((fake_quantize(x, b) - x) ** 2) for b in (8, 4, 2)]
        assert errors[0] < errors[1] < errors[2]

    def test_affine_covers_asymmetric_range(self, rng):
        x = rng.uniform(2.0, 5.0, size=200)
        sym = fake_quantize(x, 4, symmetric=True)
        aff = fake_quantize(x, 4, symmetric=False)
        assert np.mean((aff - x) ** 2) < np.mean((sym - x) ** 2)

    def test_per_channel_at_least_as_good(self, rng):
        w = rng.normal(size=(32, 8)) * np.array([0.01, 1.0, 10.0, 0.1, 5.0, 0.5, 2.0, 0.05])
        per_tensor = np.mean((fake_quantize(w, 4, per_channel=False) - w) ** 2)
        per_channel = np.mean((fake_quantize(w, 4, per_channel=True) - w) ** 2)
        assert per_channel <= per_tensor

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationConfig(bits=3)

    def test_quantize_model_8bit_keeps_accuracy(self, trained_mlp, blobs):
        _, test = blobs
        q = quantize_model(trained_mlp, QuantizationConfig(bits=8))
        base_acc = trained_mlp.evaluate(test.x, test.y)["accuracy"]
        assert q.evaluate(test.x, test.y)["accuracy"] >= base_acc - 0.02

    def test_quantize_model_1bit_degrades(self, trained_mlp, blobs):
        _, test = blobs
        q = quantize_model(trained_mlp, QuantizationConfig(bits=1))
        w_ref = trained_mlp.get_flat_weights()
        err = {"relative_l2": float(np.linalg.norm(w_ref - q.get_flat_weights())) / float(np.linalg.norm(w_ref))}
        assert err["relative_l2"] > 0.1


class TestPruning:
    def test_magnitude_prune_reaches_target(self, trained_mlp):
        pruned = magnitude_prune(trained_mlp, 0.7)
        assert abs(sparsity(pruned) - 0.7) < 0.05

    def test_moderate_pruning_keeps_accuracy(self, trained_mlp, blobs):
        _, test = blobs
        pruned = magnitude_prune(trained_mlp, 0.5)
        assert pruned.evaluate(test.x, test.y)["accuracy"] > 0.8

    def test_sparse_size_smaller_when_sparse(self, trained_mlp):
        dense_size = sparse_size_bytes(trained_mlp)
        pruned_size = sparse_size_bytes(magnitude_prune(trained_mlp, 0.9))
        assert pruned_size < dense_size

    def test_invalid_sparsity(self, trained_mlp):
        with pytest.raises(ValueError):
            magnitude_prune(trained_mlp, 1.0)

    def test_structured_prune_shrinks_architecture(self, trained_mlp, blobs):
        _, test = blobs
        pruned = structured_prune_dense(trained_mlp, 0.5)
        assert pruned.num_params() < trained_mlp.num_params()
        assert pruned.forward(test.x[:4]).shape == (4, 4)

    def test_structured_prune_rejects_cnn(self, trained_cnn):
        with pytest.raises(TypeError):
            structured_prune_dense(trained_cnn, 0.5)


class TestDistillationAndLowRank:
    def test_distillation_transfers_behaviour(self, trained_mlp, blobs):
        train, test = blobs
        student = make_mlp(12, 4, hidden=(8,), seed=9)
        history = distill(trained_mlp, student, train.x, train.y, epochs=6, lr=0.01)
        assert history["agreement"][-1] > 0.8
        assert student.num_params() < trained_mlp.num_params()

    def test_soft_labels_shape(self, trained_mlp, blobs):
        train, _ = blobs
        logits = soft_label_dataset(trained_mlp, train.x[:50])
        assert logits.shape == (50, 4)

    def test_rank_for_compression(self):
        rank = dense_rank_for_compression(64, 64, compression=4.0)
        assert 1 <= rank <= 64
        assert rank * (64 + 64) <= 64 * 64 / 4 + (64 + 64)

    def test_lowrank_reduces_params_keeps_accuracy(self, trained_mlp, blobs):
        _, test = blobs
        factored = factorize_dense_model(trained_mlp, rank=8)
        assert factored.num_params() < trained_mlp.num_params()
        assert factored.evaluate(test.x, test.y)["accuracy"] > 0.85

    def test_lowrank_aggressive_compression_trades_accuracy(self, trained_mlp, blobs):
        _, test = blobs
        mild = factorize_dense_model(trained_mlp, rank=8)
        harsh = factorize_dense_model(trained_mlp, compression=4.0)
        assert harsh.num_params() < mild.num_params()
        assert harsh.evaluate(test.x, test.y)["accuracy"] <= mild.evaluate(test.x, test.y)["accuracy"] + 1e-9

    def test_lowrank_requires_exactly_one_arg(self, trained_mlp):
        with pytest.raises(ValueError):
            factorize_dense_model(trained_mlp)
        with pytest.raises(ValueError):
            factorize_dense_model(trained_mlp, rank=2, compression=2.0)


class TestVariantsAndPareto:
    def test_generate_variants_records(self, trained_mlp, blobs):
        _, test = blobs
        profiles = [get_profile("mcu-m4"), get_profile("phone-mid")]
        variants = VariantGenerator().generate(
            trained_mlp, test.x, test.y, profiles, bit_widths=(8, 2), sparsities=(0.5,), lowrank_compressions=(2.0,)
        )
        names = {v.optimization for v in variants}
        assert names == {"none", "quantization", "pruning", "lowrank"}
        for v in variants:
            assert set(v.latency_s) == {"mcu-m4", "phone-mid"}

    def test_pareto_front_is_non_dominated(self, trained_mlp, blobs):
        _, test = blobs
        variants = VariantGenerator().generate(trained_mlp, test.x, test.y, [get_profile("mcu-m4")], bit_widths=(8, 4, 2), sparsities=(0.5, 0.9))
        front = pareto_front(variants)
        assert front
        for f in front:
            for other in variants:
                dominates = other.size_bytes < f.size_bytes and other.accuracy > f.accuracy
                assert not dominates

    def test_pareto_latency_objective(self, trained_mlp, blobs):
        _, test = blobs
        variants = VariantGenerator().generate(trained_mlp, test.x, test.y, [get_profile("mcu-m4")], bit_widths=(8,), sparsities=())
        front = pareto_front(variants, objectives=("latency:mcu-m4", "accuracy"))
        assert front
