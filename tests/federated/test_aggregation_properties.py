"""Property-based tests (hypothesis) for the federated aggregation rules.

Three invariants the round loop silently relies on:

* FedAvg is exactly the sample-count weighted mean of the client deltas.
* Secure aggregation's pairwise masks cancel: the server-visible masked
  aggregate equals the unmasked FedAvg aggregate to float tolerance.
* The trimmed mean stays inside the honest clients' per-coordinate range
  as long as the number of byzantine updates does not exceed the number of
  values trimmed per side.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.federated import (
    ClientUpdate,
    FedAvgAggregator,
    SecureAggregator,
    TrimmedMeanAggregator,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def _updates(deltas: np.ndarray, counts) -> list:
    return [
        ClientUpdate(client_id=f"client-{i:03d}", delta=np.asarray(d, dtype=np.float64), n_samples=int(n), local_loss=0.0)
        for i, (d, n) in enumerate(zip(deltas, counts))
    ]


class TestFedAvgIsWeightedMean:
    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, shape=st.tuples(st.integers(1, 12), st.integers(1, 64)), elements=finite),
        st.data(),
    )
    def test_matches_sample_weighted_mean(self, deltas, data):
        counts = data.draw(
            st.lists(st.integers(1, 500), min_size=deltas.shape[0], max_size=deltas.shape[0])
        )
        aggregated = FedAvgAggregator().aggregate(_updates(deltas, counts))
        expected = np.average(deltas, axis=0, weights=np.asarray(counts, dtype=np.float64))
        np.testing.assert_allclose(aggregated, expected, atol=1e-9, rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, shape=st.tuples(st.integers(1, 8), st.integers(1, 32)), elements=finite))
    def test_zero_sample_clients_fall_back_to_uniform(self, deltas):
        aggregated = FedAvgAggregator().aggregate(_updates(deltas, [0] * deltas.shape[0]))
        np.testing.assert_allclose(aggregated, deltas.mean(axis=0), atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, shape=st.integers(1, 64), elements=finite), st.integers(1, 1000))
    def test_single_client_identity(self, delta, count):
        aggregated = FedAvgAggregator().aggregate(_updates(delta[None], [count]))
        np.testing.assert_allclose(aggregated, delta, atol=0)


class TestSecureAggregationMasksCancel:
    @settings(max_examples=40, deadline=None)
    @given(
        arrays(np.float64, shape=st.tuples(st.integers(2, 10), st.integers(1, 64)), elements=finite),
        st.data(),
        st.integers(0, 2**16),
    )
    def test_masked_aggregate_equals_unmasked(self, deltas, data, seed):
        counts = data.draw(
            st.lists(st.integers(1, 50), min_size=deltas.shape[0], max_size=deltas.shape[0])
        )
        updates = _updates(deltas, counts)
        plain = FedAvgAggregator().aggregate(updates)
        secure = SecureAggregator(seed=seed).aggregate(updates)
        np.testing.assert_allclose(secure, plain, atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, shape=st.tuples(st.integers(3, 8), st.integers(16, 64)), elements=finite))
    def test_individual_masked_updates_are_perturbed(self, deltas):
        updates = _updates(deltas, [1] * deltas.shape[0])
        masked = SecureAggregator(mask_scale=5.0, seed=1).mask_updates(updates)
        for original, hidden in zip(updates, masked):
            # With >= 2 peers the pairwise Gaussian masks are nonzero a.s.
            assert np.linalg.norm(hidden.delta - original.delta) > 1e-3

    def test_pairwise_masks_cancel_exactly_in_weighted_sum(self):
        rng = np.random.default_rng(0)
        deltas = rng.normal(size=(6, 40))
        counts = [5, 1, 9, 3, 7, 2]
        agg = SecureAggregator(mask_scale=10.0, seed=9)
        updates = _updates(deltas, counts)
        masked = agg.mask_updates(updates)
        weights = np.asarray(counts, dtype=np.float64) / sum(counts)
        masked_sum = np.einsum("c,cd->d", weights, np.stack([u.delta for u in masked]))
        plain_sum = np.einsum("c,cd->d", weights, deltas)
        np.testing.assert_allclose(masked_sum, plain_sum, atol=1e-8)

    def test_rounds_do_not_depend_on_the_process_hash_salt(self):
        """One seed replays across process restarts: the pair masks leave
        float residue in the weights, so their RNG key must not come from
        ``hash()`` of client-id strings (salted per process)."""
        tests = Path(__file__).resolve().parents[1]
        script = (
            "from _sharded_worlds import federated_world, run_rounds\n"
            "from repro.federated import SecureAggregator\n"
            "fed = federated_world(4, 8)\n"
            "fed.aggregator = SecureAggregator(seed=3)\n"
            "run_rounds(fed, 2)\n"
            "print(fed.global_model.get_flat_weights().tobytes().hex())\n"
        )
        weights = []
        for salt in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=salt,
                       PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests / "runtime")]))
            weights.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                          capture_output=True, text=True, timeout=60).stdout)
        assert weights[0] and weights[0] == weights[1]


class TestTrimmedMeanBoundedByHonestRange:
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.float64, shape=st.tuples(st.integers(3, 12), st.integers(1, 32)), elements=finite),
        st.integers(1, 4),
        st.floats(min_value=0.05, max_value=0.45),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    def test_byzantine_updates_cannot_drag_aggregate_outside(self, honest, n_byz, trim, byz_value):
        n_total = honest.shape[0] + n_byz
        k = int(np.floor(trim * n_total))
        assume(k >= n_byz)  # the classic robustness precondition
        assume(n_total - 2 * k >= 1)
        byz = np.full((n_byz, honest.shape[1]), byz_value)
        deltas = np.concatenate([honest, byz], axis=0)
        aggregated = TrimmedMeanAggregator(trim_fraction=trim).aggregate(_updates(deltas, [1] * n_total))
        lo = honest.min(axis=0) - 1e-9
        hi = honest.max(axis=0) + 1e-9
        assert np.all(aggregated >= lo), "aggregate fell below the honest range"
        assert np.all(aggregated <= hi), "aggregate rose above the honest range"

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, shape=st.tuples(st.integers(4, 10), st.integers(1, 16)), elements=finite))
    def test_all_honest_matches_plain_trimmed_mean(self, deltas):
        n = deltas.shape[0]
        agg = TrimmedMeanAggregator(trim_fraction=0.25).aggregate(_updates(deltas, [1] * n))
        k = int(np.floor(0.25 * n))
        expected = np.sort(deltas, axis=0)[k : n - k].mean(axis=0)
        np.testing.assert_allclose(agg, expected, atol=0)

    def test_flip_attack_is_neutralized(self):
        rng = np.random.default_rng(4)
        honest = rng.normal(0.1, 0.02, size=(8, 50))
        attack = -25.0 * honest[:2]
        deltas = np.concatenate([honest, attack], axis=0)
        robust = TrimmedMeanAggregator(trim_fraction=0.2).aggregate(_updates(deltas, [1] * 10))
        naive = FedAvgAggregator().aggregate(_updates(deltas, [1] * 10))
        true_mean = honest.mean(axis=0)
        assert np.linalg.norm(robust - true_mean) < 0.2 * np.linalg.norm(naive - true_mean)
