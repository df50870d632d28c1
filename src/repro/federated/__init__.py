"""Federated learning: clients, aggregation, compression, scheduling, personalization."""

from .aggregation import (
    Aggregator,
    FedAdamAggregator,
    FedAvgAggregator,
    SecureAggregator,
    TrimmedMeanAggregator,
)
from .client import ClientUpdate, FederatedClient
from .compression import (
    CompressedUpdate,
    NoCompression,
    QuantizedCompressor,
    SignSGDCompressor,
    TernaryCompressor,
    TopKSparsifier,
    UpdateCompressor,
    get_compressor,
)
from .engine import (
    Cohort,
    FederatedEngine,
    RoundResult,
    RoundScenario,
    noniid_severity_sweep,
    partition_cohorts,
    train_clients_batched,
    vectorized_supported,
)
from .scheduling import ClientScheduler, EligibilityScheduler, RandomScheduler
from .server import centralized_baseline, personalize_all

__all__ = [
    "FederatedClient",
    "ClientUpdate",
    "FederatedEngine",
    "RoundScenario",
    "RoundResult",
    "centralized_baseline",
    "personalize_all",
    "noniid_severity_sweep",
    "train_clients_batched",
    "vectorized_supported",
    "Cohort",
    "partition_cohorts",
    "Aggregator",
    "FedAvgAggregator",
    "FedAdamAggregator",
    "TrimmedMeanAggregator",
    "SecureAggregator",
    "UpdateCompressor",
    "CompressedUpdate",
    "NoCompression",
    "TopKSparsifier",
    "SignSGDCompressor",
    "TernaryCompressor",
    "QuantizedCompressor",
    "get_compressor",
    "ClientScheduler",
    "RandomScheduler",
    "EligibilityScheduler",
]
