"""Shared fixtures: small datasets and pre-trained models reused across tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_gaussian_blobs, make_synthetic_digits
from repro.nn import make_mlp, make_tiny_cnn


@pytest.fixture(scope="session")
def blobs():
    """A small, well-separated classification dataset (train, test)."""
    ds = make_gaussian_blobs(n_samples=900, n_features=12, n_classes=4, cluster_std=1.0, seed=7)
    return ds.split(test_fraction=0.25, seed=7)


@pytest.fixture(scope="session")
def trained_mlp(blobs):
    """An MLP trained to high accuracy on the blobs dataset."""
    train, _ = blobs
    model = make_mlp(12, 4, hidden=(32, 16), seed=0, name="fixture_mlp")
    model.fit(train.x, train.y, epochs=8, batch_size=32, lr=0.01, seed=0)
    return model


@pytest.fixture(scope="session")
def digits():
    """Small synthetic-digit image dataset (train, test)."""
    ds = make_synthetic_digits(n_samples=500, image_size=12, seed=3)
    return ds.split(test_fraction=0.25, seed=3)


@pytest.fixture(scope="session")
def trained_cnn(digits):
    """A tiny CNN briefly trained on the synthetic digits."""
    train, _ = digits
    model = make_tiny_cnn((12, 12, 1), 10, filters=(4, 8), dense_width=16, seed=0, name="fixture_cnn")
    model.fit(train.x, train.y, epochs=2, batch_size=32, lr=0.005, seed=0)
    return model


@pytest.fixture()
def rng():
    """A deterministic random generator for per-test noise."""
    return np.random.default_rng(123)


@pytest.fixture
def counted(monkeypatch):
    """``(count, calls)``: ``count(owner, name)`` wraps ``owner.name`` so
    that ``calls[name]`` counts its invocations."""
    calls = {}

    def count(owner, name):
        real = getattr(owner, name)
        calls[name] = 0

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    return count, calls
