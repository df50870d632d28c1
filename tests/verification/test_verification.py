"""Tests for Freivalds checks, Merkle commitments, transcripts and the simulated TEE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import make_tiny_cnn
from repro.verification import (
    FreivaldsVerifier,
    MerkleTree,
    SimulatedEnclave,
    TranscriptVerifier,
    VerifiableExecutor,
    commit_model_weights,
    freivalds_check,
    slalom_partition,
)


class TestFreivalds:
    def test_accepts_correct_product(self, rng):
        a = rng.normal(size=(40, 30))
        b = rng.normal(size=(30, 20))
        assert freivalds_check(a, b, a @ b, rng=rng)

    def test_rejects_tampered_product(self, rng):
        a = rng.normal(size=(40, 30))
        b = rng.normal(size=(30, 20))
        c = a @ b
        c[5, 7] += 1e-2
        verifier = FreivaldsVerifier(n_trials=12, seed=0)
        assert not verifier.verify(a, b, c)
        assert verifier.failures == 1

    def test_soundness_error_decreases_with_trials(self):
        assert FreivaldsVerifier(n_trials=16).soundness_error < FreivaldsVerifier(n_trials=4).soundness_error

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            freivalds_check(rng.normal(size=(3, 3)), rng.normal(size=(4, 4)), rng.normal(size=(3, 4)))

    def test_tolerates_floating_point_noise(self, rng):
        a = rng.normal(size=(64, 64)) * 1e3
        b = rng.normal(size=(64, 64)) * 1e3
        c = (a @ b).astype(np.float32).astype(np.float64)  # rounding noise
        assert freivalds_check(a, b, c, tolerance=1e-5, rng=rng)


class TestMerkle:
    def test_root_changes_with_content(self):
        t1 = MerkleTree([b"a", b"b", b"c"])
        t2 = MerkleTree([b"a", b"b", b"d"])
        assert t1.root != t2.root

    def test_inclusion_proofs_verify(self):
        leaves = [f"chunk-{i}".encode() for i in range(7)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert MerkleTree.verify_proof(leaf, i, tree.proof(i), tree.root)

    def test_wrong_leaf_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        assert not MerkleTree.verify_proof(b"x", 1, tree.proof(1), tree.root)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_model_commitment_and_chunk_audit(self, trained_mlp):
        root, tree, chunks = commit_model_weights(trained_mlp, chunk_size=1024)
        assert MerkleTree.verify_proof(chunks[0], 0, tree.proof(0), root)
        # A model with different weights commits to a different root.
        other = trained_mlp.clone(copy_weights=True)
        other.layers[0].params["W"] += 1e-3
        other_root, _, _ = commit_model_weights(other, chunk_size=1024)
        assert other_root != root


class TestTranscriptProtocol:
    def test_honest_transcript_verifies(self, trained_mlp, blobs):
        _, test = blobs
        executor = VerifiableExecutor(trained_mlp, seed=0)
        transcript = executor.execute(test.x[:64])
        report = TranscriptVerifier(trained_mlp, expected_root=executor.weight_root, seed=0).verify(transcript)
        assert report["valid"]
        assert report["transcript_bytes"] > 0
        assert report["soundness_error"] < 0.01

    def test_tampered_prediction_detected(self, trained_mlp, blobs):
        _, test = blobs
        executor = VerifiableExecutor(trained_mlp, seed=0)
        transcript = executor.execute(test.x[:32])
        transcript.layer_outputs[-1][0, 0] += 5.0
        report = TranscriptVerifier(trained_mlp, expected_root=executor.weight_root, seed=0).verify(transcript)
        assert not report["valid"]

    def test_swapped_model_detected_via_commitment(self, trained_mlp, blobs):
        _, test = blobs
        imposter = trained_mlp.clone(copy_weights=True)
        imposter.layers[0].params["W"] *= 1.5
        executor = VerifiableExecutor(imposter, seed=0)
        transcript = executor.execute(test.x[:16])
        registered_root, _, _ = commit_model_weights(trained_mlp)
        report = TranscriptVerifier(imposter, expected_root=registered_root, seed=0).verify(transcript)
        assert not report["valid"]
        assert any("commitment" in issue for issue in report["issues"])

    def test_wrong_architecture_detected(self, trained_mlp, trained_cnn, digits):
        _, test = digits
        executor = VerifiableExecutor(trained_cnn, seed=0)
        transcript = executor.execute(test.x[:8])
        report = TranscriptVerifier(trained_mlp, seed=0).verify(transcript)
        assert not report["valid"]

    def test_honest_cnn_transcript_verifies_via_conv_gemms(self, trained_cnn, digits):
        """Conv layers are Freivalds-checked from their im2col GEMM triples
        (the same records verify_compiled_run checks) — the verifier no
        longer re-executes standard convolutions."""
        _, test = digits
        executor = VerifiableExecutor(trained_cnn, seed=0)
        transcript = executor.execute(test.x[:8])
        report = TranscriptVerifier(trained_cnn, expected_root=executor.weight_root, seed=0).verify(transcript)
        assert report["valid"], report["issues"]
        # dense layers + activation-free conv layers all go through Freivalds
        n_conv = sum(1 for l in trained_cnn.layers if type(l).__name__ == "Conv2D" and not l.activation_name)
        n_dense = sum(
            1 for l in trained_cnn.layers if type(l).__name__ == "Dense" and not l.activation_name
        )
        assert report["freivalds_checked_gemms"] == n_conv + n_dense > 0

    def test_tampered_conv_output_rejected_by_freivalds(self, trained_cnn, digits):
        """An adversarial single-entry edit of a conv layer's output must be
        caught by the randomized GEMM check, not just downstream layers."""
        _, test = digits
        executor = VerifiableExecutor(trained_cnn, seed=0)
        transcript = executor.execute(test.x[:8])
        conv_idx = next(
            i for i, l in enumerate(trained_cnn.layers) if type(l).__name__ == "Conv2D" and not l.activation_name
        )
        transcript.layer_outputs[conv_idx][0, 0, 0, 0] += 1e-2
        report = TranscriptVerifier(trained_cnn, expected_root=executor.weight_root, seed=0).verify(transcript)
        assert not report["valid"]
        assert any("Freivalds" in issue and f"layer {conv_idx}" in issue for issue in report["issues"])

    def test_conv_shape_mismatch_flagged(self, trained_cnn, digits):
        _, test = digits
        executor = VerifiableExecutor(trained_cnn, seed=0)
        transcript = executor.execute(test.x[:4])
        conv_idx = next(i for i, l in enumerate(trained_cnn.layers) if type(l).__name__ == "Conv2D")
        transcript.layer_outputs[conv_idx] = transcript.layer_outputs[conv_idx][:, :-1]
        report = TranscriptVerifier(trained_cnn, expected_root=executor.weight_root, seed=0).verify(transcript)
        assert not report["valid"]
        assert any("shape" in issue for issue in report["issues"])


class TestSimulatedEnclave:
    def test_all_inside_overhead_matches_slowdown(self, trained_mlp, blobs):
        _, test = blobs
        enclave = SimulatedEnclave(slowdown=2.0)
        out, report = enclave.run_all_inside(trained_mlp, test.x[:64])
        np.testing.assert_allclose(out, trained_mlp.forward(test.x[:64]))
        assert report.overhead_factor == pytest.approx(2.0)

    def test_slalom_cheaper_than_all_inside_for_cnn(self, trained_cnn, digits):
        _, test = digits
        enclave = SimulatedEnclave(slowdown=3.0, masking_overhead_per_byte=1e-10)
        _, all_inside = enclave.run_all_inside(trained_cnn, test.x[:16])
        out, slalom = enclave.run_slalom(trained_cnn, test.x[:16])
        np.testing.assert_allclose(out, trained_cnn.forward(test.x[:16]), atol=1e-8)
        assert slalom.overhead_factor < all_inside.overhead_factor

    def test_partial_enclave_scales_with_protected_fraction(self, trained_mlp, blobs):
        _, test = blobs
        enclave = SimulatedEnclave(slowdown=4.0)
        _, none_prot = enclave.run_partial(trained_mlp, test.x[:32], protected_layers=[])
        _, all_prot = enclave.run_partial(trained_mlp, test.x[:32], protected_layers=list(range(len(trained_mlp.layers))))
        assert none_prot.overhead_factor == pytest.approx(1.0)
        assert all_prot.overhead_factor == pytest.approx(4.0, rel=0.01)

    def test_slalom_partition_splits_linear_ops(self, trained_cnn):
        outside, inside = slalom_partition(trained_cnn)
        assert set(outside).isdisjoint(inside)
        assert len(outside) + len(inside) == len(trained_cnn.layers)
        assert outside  # the CNN has standalone conv layers

    def test_invalid_slowdown(self):
        with pytest.raises(ValueError):
            SimulatedEnclave(slowdown=0.5)


class TestVerifyCompiledRun:
    def _plan(self):
        from repro.exchange import CompiledExecutor, PassPipeline, from_sequential
        from repro.nn import make_tiny_cnn

        model = make_tiny_cnn((10, 10, 1), 4, filters=(4,), dense_width=8, seed=3)
        graph = PassPipeline.standard_inference().run(from_sequential(model))
        return CompiledExecutor(graph), model

    def test_honest_run_verifies_all_gemms(self, rng):
        from repro.verification import verify_compiled_run

        plan, model = self._plan()
        x = rng.normal(size=(6, 10, 10, 1))
        report = verify_compiled_run(plan, x, n_trials=10, seed=0)
        assert report["valid"]
        assert report["checked_gemms"] == plan.n_gemm_steps == 3  # conv-as-im2col + 2 dense
        assert report["failed_gemms"] == []
        assert 0 < report["soundness_error"] <= 3 * 0.5**10
        np.testing.assert_allclose(report["output"], model.forward(x), atol=1e-9, rtol=1e-9)

    def test_tampered_gemm_is_rejected(self, rng):
        from repro.verification import FreivaldsVerifier

        plan, _ = self._plan()
        _, gemms = plan.run(rng.normal(size=(4, 10, 10, 1)), record_gemms=True)
        verifier = FreivaldsVerifier(n_trials=10, seed=1)
        a, b, c = gemms[0]
        forged = c.copy()
        forged[0, 0] += 1.0  # adversarial single-entry modification
        assert verifier.verify(a, b, c)
        assert not verifier.verify(a, b, forged)
        assert verifier.failures == 1
