"""Compression round-trip contracts: payload accounting, documented error
bounds on adversarial inputs, and batched == sequential equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated import (
    CompressedUpdate,
    NoCompression,
    QuantizedCompressor,
    SignSGDCompressor,
    TernaryCompressor,
    TopKSparsifier,
    UpdateCompressor,
)

DIM = 512


def adversarial_inputs(rng):
    """Inputs that historically break compressors: zeros, subnormals, spikes."""
    spikes = np.zeros(DIM)
    spikes[::37] = 1e3
    spikes[1::53] = -1e3
    return {
        "zeros": np.zeros(DIM),
        "subnormals": np.full(DIM, 5e-310),
        "mixed_subnormals": np.where(np.arange(DIM) % 2 == 0, 5e-310, -5e-310),
        "mixed_sign_spikes": spikes + rng.normal(0, 1e-3, DIM),
        "gaussian": rng.normal(size=DIM),
        "one_hot_spike": np.eye(1, DIM, 7).ravel() * 1e6,
    }


ALL_COMPRESSORS = [
    NoCompression(),
    TopKSparsifier(fraction=0.1),
    SignSGDCompressor(),
    TernaryCompressor(),
    QuantizedCompressor(bits=8),
    QuantizedCompressor(bits=2),
]


class TestPayloadAccounting:
    def test_documented_nbytes_formulas(self, rng):
        update = rng.normal(size=DIM)
        assert NoCompression().compress(update).nbytes == DIM * 4
        k = int(np.ceil(0.1 * DIM))
        assert TopKSparsifier(0.1).compress(update).nbytes == k * 8
        assert SignSGDCompressor().compress(update).nbytes == int(np.ceil(DIM / 8)) + 4
        assert TernaryCompressor().compress(update).nbytes == int(np.ceil(DIM / 4)) + 4
        assert QuantizedCompressor(8).compress(update).nbytes == DIM + 8

    def test_compression_actually_compresses(self, rng):
        update = rng.normal(size=DIM)
        dense = NoCompression().compress(update).nbytes
        for comp in (TopKSparsifier(0.05), SignSGDCompressor(), TernaryCompressor(), QuantizedCompressor(8)):
            assert comp.compress(update).nbytes < dense


class TestErrorBoundsOnAdversarialInputs:
    @pytest.mark.parametrize("name", ["zeros", "subnormals", "mixed_subnormals", "mixed_sign_spikes", "gaussian", "one_hot_spike"])
    def test_no_compression_is_float32_rounding(self, name, rng):
        update = adversarial_inputs(rng)[name]
        decoded, _ = NoCompression().roundtrip(update)
        # float32 relative rounding plus underflow-to-zero for subnormals.
        bound = np.maximum(np.abs(update) * 2**-23, 2e-38)
        assert np.all(np.abs(decoded - update) <= bound)

    @pytest.mark.parametrize("name", ["zeros", "subnormals", "mixed_subnormals", "mixed_sign_spikes", "gaussian", "one_hot_spike"])
    def test_topk_error_bounded_by_dropped_magnitude(self, name, rng):
        update = adversarial_inputs(rng)[name]
        k = int(np.ceil(0.1 * update.size))
        decoded, _ = TopKSparsifier(0.1).roundtrip(update)
        kth_largest = np.sort(np.abs(update))[-k]
        # Dropped coordinates are bounded by the k-th largest magnitude;
        # kept coordinates only see float32 rounding.
        bound = np.maximum(kth_largest, np.abs(update) * 2**-23) + 1e-300
        assert np.all(np.abs(decoded - update) <= bound)

    @pytest.mark.parametrize("name", ["zeros", "subnormals", "mixed_subnormals", "mixed_sign_spikes", "gaussian", "one_hot_spike"])
    def test_quantized_error_bounded_by_half_step(self, name, rng):
        update = adversarial_inputs(rng)[name]
        comp = QuantizedCompressor(bits=8)
        decoded, compressed = comp.roundtrip(update)
        scale = float(compressed.payload["scale"][0])
        lo = float(compressed.payload["lo"][0])
        span = max(abs(lo), abs(lo + scale * (2**8 - 1)))
        # Half a quantization step plus the float32 rounding of lo/scale.
        bound = 0.5 * scale + span * 2**-22 + 1e-300
        assert np.all(np.abs(decoded - update) <= bound)

    @pytest.mark.parametrize("name", ["zeros", "subnormals", "mixed_subnormals", "mixed_sign_spikes", "gaussian", "one_hot_spike"])
    def test_signsgd_decodes_to_scaled_signs(self, name, rng):
        update = adversarial_inputs(rng)[name]
        decoded, compressed = SignSGDCompressor().roundtrip(update)
        scale = float(compressed.payload["scale"][0])
        assert np.all(np.isin(decoded, [scale, -scale]))
        if scale > 0:  # a float32-underflowed scale (subnormal inputs) wipes the signs
            nonzero = np.abs(update) > 0
            assert np.all(np.sign(decoded[nonzero]) == np.sign(update[nonzero]))

    @pytest.mark.parametrize("name", ["zeros", "subnormals", "mixed_subnormals", "mixed_sign_spikes", "gaussian", "one_hot_spike"])
    def test_ternary_codes_respect_threshold(self, name, rng):
        update = adversarial_inputs(rng)[name]
        comp = TernaryCompressor(threshold_factor=0.7)
        decoded, compressed = comp.roundtrip(update)
        scale = float(compressed.payload["scale"][0])
        threshold = 0.7 * float(np.mean(np.abs(update)))
        assert np.all(np.isin(decoded, [-scale, 0.0, scale]))
        # Coordinates strictly below threshold must decode to zero.
        assert np.all(decoded[np.abs(update) < threshold * (1 - 1e-12)] == 0.0)

    def test_quantized_constant_vector_is_exact_zero_code(self):
        update = np.full(DIM, 3.25)
        decoded, _ = QuantizedCompressor(bits=8).roundtrip(update)
        np.testing.assert_allclose(decoded, update, atol=1e-6)


class TestBatchedRoundtripEquivalence:
    @pytest.mark.parametrize("comp", ALL_COMPRESSORS, ids=lambda c: c.name + str(getattr(c, "bits", "")))
    def test_batched_matches_sequential_on_random_stack(self, comp, rng):
        stack = rng.normal(size=(7, DIM)) * rng.lognormal(0, 2, size=(7, 1))
        batched, nbytes = comp.roundtrip_batch(stack)
        for i, row in enumerate(stack):
            decoded, compressed = comp.roundtrip(row)
            np.testing.assert_array_equal(batched[i], decoded, err_msg=f"row {i} of {comp.name}")
            assert nbytes[i] == compressed.nbytes

    @pytest.mark.parametrize("comp", ALL_COMPRESSORS, ids=lambda c: c.name + str(getattr(c, "bits", "")))
    def test_batched_matches_sequential_on_adversarial_stack(self, comp, rng):
        stack = np.stack(list(adversarial_inputs(rng).values()))
        batched, nbytes = comp.roundtrip_batch(stack)
        for i, row in enumerate(stack):
            decoded, compressed = comp.roundtrip(row)
            np.testing.assert_array_equal(batched[i], decoded, err_msg=f"row {i} of {comp.name}")
            assert nbytes[i] == compressed.nbytes

    def test_base_class_fallback_loops_rows(self, rng):
        class HalvingCompressor(UpdateCompressor):
            name = "halving"

            def compress(self, update):
                return CompressedUpdate("halving", {"v": (update * 0.5).astype(np.float32)}, update.size, update.size * 2)

            def decompress(self, compressed):
                return compressed.payload["v"].astype(np.float64) * 2.0

        stack = rng.normal(size=(4, 32))
        batched, nbytes = HalvingCompressor().roundtrip_batch(stack)
        assert batched.shape == stack.shape
        assert np.all(nbytes == 64)
        np.testing.assert_allclose(batched, stack, rtol=1e-6)

    def test_batch_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            NoCompression().roundtrip_batch(rng.normal(size=DIM))
