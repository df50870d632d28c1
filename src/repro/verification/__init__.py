"""Verifiable execution: Freivalds checks, Merkle commitments, transcripts, simulated TEE."""

from .commitments import MerkleTree, commit_model_weights
from .enclave import EnclaveReport, SimulatedEnclave, slalom_partition
from .freivalds import FreivaldsVerifier, freivalds_check, verify_compiled_run
from .protocol import ExecutionTranscript, TranscriptVerifier, VerifiableExecutor

__all__ = [
    "freivalds_check",
    "verify_compiled_run",
    "FreivaldsVerifier",
    "MerkleTree",
    "commit_model_weights",
    "ExecutionTranscript",
    "VerifiableExecutor",
    "TranscriptVerifier",
    "SimulatedEnclave",
    "EnclaveReport",
    "slalom_partition",
]
