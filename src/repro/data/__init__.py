"""Synthetic data generators, drift injectors and federated partitioners."""

from .drift import DriftingStream, DriftSpec, concept_shift, covariate_shift
from .federated import (
    ClientData,
    drop_labels,
    partition_dirichlet,
    partition_iid,
    partition_shards,
    partition_statistics,
)
from .synthetic import (
    Dataset,
    make_gaussian_blobs,
    make_keyword_spectrograms,
    make_sensor_windows,
    make_synthetic_digits,
    train_test_split,
)

__all__ = [
    "Dataset",
    "make_gaussian_blobs",
    "make_synthetic_digits",
    "make_keyword_spectrograms",
    "make_sensor_windows",
    "train_test_split",
    "DriftSpec",
    "DriftingStream",
    "covariate_shift",
    "concept_shift",
    "ClientData",
    "partition_iid",
    "partition_dirichlet",
    "partition_shards",
    "drop_labels",
    "partition_statistics",
]
