"""IP protection: watermarking, encryption at rest, extraction attacks and defences."""

from .defenses import (
    ExtractionDetector,
    ProtectedModel,
    get_poisoning,
    noisy_probabilities,
    reverse_sigmoid_poisoning,
    round_probabilities,
    top1_only,
)
from .encryption import (
    EncryptedBlob,
    IntegrityError,
    ModelKeyManager,
    decrypt_blob,
    encrypt_blob,
)
from .extraction import ExtractionResult, QueryBasedExtractor, direct_theft
from .watermarking import (
    StaticWatermarker,
    TriggerSetWatermarker,
    WatermarkKey,
    evaluate_robustness,
)

__all__ = [
    "StaticWatermarker",
    "TriggerSetWatermarker",
    "WatermarkKey",
    "evaluate_robustness",
    "EncryptedBlob",
    "encrypt_blob",
    "decrypt_blob",
    "ModelKeyManager",
    "IntegrityError",
    "ExtractionResult",
    "QueryBasedExtractor",
    "direct_theft",
    "ExtractionDetector",
    "ProtectedModel",
    "get_poisoning",
    "round_probabilities",
    "top1_only",
    "noisy_probabilities",
    "reverse_sigmoid_poisoning",
]
