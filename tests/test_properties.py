"""Property-based tests (hypothesis) on core invariants across the platform."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.billing import BillingBackend, PricingPlan, UsageLedger
from repro.federated import QuantizedCompressor, SignSGDCompressor, TernaryCompressor, TopKSparsifier
from repro.nn.activations import log_softmax, softmax
from repro.observability import RunningMoments
from repro.optimize import dequantize_array, fake_quantize, quantize_array
from repro.verification import MerkleTree, freivalds_check

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, shape=st.integers(1, 200), elements=finite_floats), st.sampled_from([2, 4, 8, 16]))
def test_quantization_error_bounded_by_half_step(x, bits):
    """Symmetric quantization error never exceeds half a quantization step."""
    q, scale, zero = quantize_array(x, bits=bits, symmetric=True)
    restored = dequantize_array(q, scale, zero)
    assert np.max(np.abs(restored - x)) <= 0.5 * scale + 1e-9


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, shape=st.integers(1, 300), elements=finite_floats), st.sampled_from([2, 4, 8]))
def test_fake_quantize_idempotent(x, bits):
    """Quantizing an already-quantized tensor changes nothing (fixed point)."""
    once = fake_quantize(x, bits)
    twice = fake_quantize(once, bits)
    np.testing.assert_allclose(once, twice, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, shape=st.tuples(st.integers(1, 8), st.integers(2, 6)), elements=finite_floats))
def test_softmax_is_a_distribution(x):
    p = softmax(x, axis=-1)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.exp(log_softmax(x, axis=-1)), p, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, shape=st.integers(2, 500), elements=finite_floats),
    arrays(np.float64, shape=st.integers(2, 500), elements=finite_floats),
)
def test_running_moments_merge_is_order_independent(a, b):
    """merge(A, B) gives the same moments as bulk-processing A ++ B."""
    left = RunningMoments()
    left.update_batch(a)
    right = RunningMoments()
    right.update_batch(b)
    left.merge(right)
    bulk = RunningMoments()
    bulk.update_batch(np.concatenate([a, b]))
    assert left.count == bulk.count
    assert left.mean == pytest.approx(bulk.mean, rel=1e-9, abs=1e-9)
    assert left.variance == pytest.approx(bulk.variance, rel=1e-6, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.integers(2, 30), st.integers(2, 30), st.integers(0, 10**6))
def test_freivalds_completeness(n, k, m, seed):
    """A correct product is always accepted (completeness)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, k))
    b = rng.normal(size=(k, m))
    assert freivalds_check(a, b, a @ b, n_trials=6, rng=rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 20), st.integers(0, 10**6))
def test_freivalds_soundness_against_perturbation(n, seed):
    """A visibly perturbed product is rejected with overwhelming probability.

    A single perturbed entry is missed by one Freivalds trial with probability
    1/2 (the random 0/1 vector must select its column), so we use 64 trials:
    the residual acceptance probability of 2**-64 is negligible.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    c = a @ b
    c[rng.integers(0, n), rng.integers(0, n)] += 1.0
    assert not freivalds_check(a, b, c, n_trials=64, rng=rng)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=16), st.data())
def test_merkle_inclusion_proofs_always_verify(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(0, len(leaves) - 1))
    assert MerkleTree.verify_proof(leaves[index], index, tree.proof(index), tree.root)


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.float64, shape=st.integers(8, 500), elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False)),
    st.sampled_from(["topk", "signsgd", "ternary", "quantized"]),
)
def test_compressors_preserve_dimension_and_finiteness(update, name):
    compressor = {
        "topk": TopKSparsifier(0.2),
        "signsgd": SignSGDCompressor(),
        "ternary": TernaryCompressor(),
        "quantized": QuantizedCompressor(8),
    }[name]
    decoded, compressed = compressor.roundtrip(update)
    assert decoded.shape == update.shape
    assert np.all(np.isfinite(decoded))
    assert compressed.nbytes <= update.size * 4 + 16


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10**6))
def test_usage_ledger_chain_always_verifies_and_counts(n_queries, seed):
    """However many queries are metered, the untampered chain verifies and
    the backend accepts and bills exactly the recorded count."""
    backend = BillingBackend(master_key=f"master-{seed}".encode())
    backend.register_plan(PricingPlan("m", price_per_query=0.001))
    key = backend.enroll_device("dev")
    ledger = UsageLedger("dev", key)
    ledger.add_grant(backend.sell_package("dev", "m", n_queries + 5), backend_key=backend.signing_key())
    for _ in range(n_queries):
        ledger.record_query("m")
    assert ledger.verify_chain()
    result = backend.reconcile(ledger.export())
    assert result.accepted
    assert result.n_entries == n_queries
