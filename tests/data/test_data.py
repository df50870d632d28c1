"""Tests for synthetic datasets, drift injection and federated partitioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    DriftingStream,
    DriftSpec,
    concept_shift,
    covariate_shift,
    drop_labels,
    make_gaussian_blobs,
    make_keyword_spectrograms,
    make_sensor_windows,
    make_synthetic_digits,
    partition_dirichlet,
    partition_iid,
    partition_shards,
    partition_statistics,
    train_test_split,
)


class TestGenerators:
    def test_blobs_shapes_and_determinism(self):
        a = make_gaussian_blobs(200, 8, 3, seed=5)
        b = make_gaussian_blobs(200, 8, 3, seed=5)
        assert a.x.shape == (200, 8) and a.num_classes == 3
        np.testing.assert_allclose(a.x, b.x)

    def test_blobs_are_learnable(self):
        from repro.nn import make_mlp

        ds = make_gaussian_blobs(600, 10, 3, cluster_std=0.5, seed=0)
        train, test = ds.split(0.25, seed=0)
        model = make_mlp(10, 3, hidden=(16,), seed=0)
        model.fit(train.x, train.y, epochs=6, lr=0.02)
        assert model.evaluate(test.x, test.y)["accuracy"] > 0.9

    def test_digits_shapes(self):
        ds = make_synthetic_digits(100, image_size=10, seed=2)
        assert ds.x.shape == (100, 10, 10, 1)
        flat = make_synthetic_digits(100, image_size=10, seed=2, flat=True)
        assert flat.x.shape == (100, 100)

    def test_digits_num_classes_bounds(self):
        with pytest.raises(ValueError):
            make_synthetic_digits(10, num_classes=11)

    def test_digit_classes_are_distinguishable(self):
        ds = make_synthetic_digits(600, image_size=12, noise=0.2, num_classes=4, seed=0, flat=True)
        # Per-class mean images should be far apart relative to the noise.
        means = np.stack([ds.x[ds.y == c].mean(axis=0) for c in range(4)])
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
        off_diag = dists[~np.eye(4, dtype=bool)]
        assert off_diag.min() > 1.0

    def test_keyword_spectrograms(self):
        ds = make_keyword_spectrograms(80, n_mels=12, n_frames=10, num_keywords=3, seed=1)
        assert ds.x.shape == (80, 12, 10, 1)
        assert ds.num_classes == 3

    def test_sensor_windows_anomaly_rate(self):
        ds = make_sensor_windows(1000, anomaly_fraction=0.1, seed=0)
        rate = ds.y.mean()
        assert 0.05 < rate < 0.15

    def test_split_fractions(self):
        ds = make_gaussian_blobs(100, 4, 2, seed=0)
        train, test = ds.split(0.2, seed=0)
        assert len(test) == 20 and len(train) == 80

    def test_split_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((10, 2)), np.zeros(10), test_fraction=1.5)


class TestDrift:
    def test_covariate_shift_moves_mean(self, rng):
        x = rng.normal(size=(500, 6))
        shifted = covariate_shift(x, magnitude=3.0, seed=1)
        assert np.linalg.norm(shifted.mean(axis=0) - x.mean(axis=0)) > 1.0

    def test_concept_shift_changes_labels(self, rng):
        y = rng.integers(0, 4, size=200)
        flipped = concept_shift(y, 4, fraction=1.0, seed=0)
        assert np.mean(flipped != y) > 0.5

    def test_concept_shift_partial(self, rng):
        y = rng.integers(0, 4, size=1000)
        flipped = concept_shift(y, 4, fraction=0.1, seed=0)
        assert 0.02 < np.mean(flipped != y) < 0.2

    def test_drift_spec_ramp(self):
        spec = DriftSpec(start=10, magnitude=2.0, ramp=4)
        assert spec.severity_at(5) == 0.0
        assert spec.severity_at(10) == pytest.approx(0.5)
        assert spec.severity_at(13) == pytest.approx(2.0)
        assert spec.severity_at(100) == pytest.approx(2.0)

    def test_stream_marks_drifted_batches(self):
        ds = make_gaussian_blobs(500, 6, 3, seed=0)
        stream = DriftingStream(ds, batch_size=32, specs=[DriftSpec(start=5, magnitude=1.0)], seed=0)
        flags = [drifted for _, _, drifted in stream.batches(10)]
        assert flags[:5] == [False] * 5
        assert all(flags[5:])

    def test_stream_unknown_kind(self):
        ds = make_gaussian_blobs(100, 4, 2, seed=0)
        with pytest.raises(ValueError):
            DriftingStream(ds, specs=[DriftSpec(start=0, kind="weird")])


class TestFederatedPartitioning:
    def test_iid_partition_sizes(self):
        ds = make_gaussian_blobs(1000, 6, 4, seed=0)
        clients = partition_iid(ds, 10, seed=0)
        sizes = [len(c) for c in clients]
        assert sum(sizes) == 1000
        assert max(sizes) - min(sizes) <= 1

    def test_dirichlet_more_skewed_with_small_alpha(self):
        ds = make_gaussian_blobs(2000, 6, 5, seed=0)
        skewed = partition_dirichlet(ds, 10, alpha=0.1, seed=1)
        uniform = partition_dirichlet(ds, 10, alpha=100.0, seed=1)
        s_stats = partition_statistics(skewed, 5)
        u_stats = partition_statistics(uniform, 5)
        assert s_stats["mean_tv_distance"] > u_stats["mean_tv_distance"]

    def test_dirichlet_covers_all_samples_at_most_once(self):
        ds = make_gaussian_blobs(500, 4, 3, seed=0)
        clients = partition_dirichlet(ds, 5, alpha=0.5, seed=0)
        total = sum(c.x.shape[0] for c in clients)
        assert total == 500

    def test_shards_partition_label_concentration(self):
        ds = make_gaussian_blobs(1000, 4, 10, seed=0)
        clients = partition_shards(ds, 10, shards_per_client=2, seed=0)
        # Each client sees at most ~2-3 distinct labels with shard splitting.
        distinct = [len(np.unique(c.y)) for c in clients]
        assert max(distinct) <= 4

    def test_label_distribution_is_normalized_over_all_classes(self):
        ds = make_gaussian_blobs(400, 4, 4, seed=0)
        client = partition_shards(ds, 4, shards_per_client=1, seed=0)[0]
        dist = client.label_distribution(6)
        assert dist.shape == (6,) and dist.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(dist, np.bincount(client.y, minlength=6) / len(client.y))
        assert dist[4:].tolist() == [0.0, 0.0]
        empty = drop_labels(client, 1.0, seed=0)
        assert len(empty.y) == 0 and empty.label_distribution(6).tolist() == [0.0] * 6

    def test_drop_labels_moves_samples(self):
        ds = make_gaussian_blobs(400, 4, 4, seed=0)
        client = partition_iid(ds, 2, seed=0)[0]
        semi = drop_labels(client, 0.5, seed=0)
        assert semi.x_unlabeled is not None
        assert semi.x.shape[0] + semi.x_unlabeled.shape[0] == client.x.shape[0]

    def test_partition_statistics_keys(self):
        ds = make_gaussian_blobs(300, 4, 3, seed=0)
        stats = partition_statistics(partition_iid(ds, 3, seed=0), 3)
        assert set(stats) == {"mean_tv_distance", "max_tv_distance", "size_imbalance", "n_clients"}

    def test_invalid_client_count(self):
        ds = make_gaussian_blobs(100, 4, 2, seed=0)
        with pytest.raises(ValueError):
            partition_iid(ds, 0)
