"""Model optimization: quantization, pruning, distillation, low-rank, Pareto search."""

from .distillation import distill, soft_label_dataset
from .lowrank import dense_rank_for_compression, factorize_dense_model
from .pareto import ModelVariant, VariantGenerator, pareto_front
from .pruning import (
    magnitude_prune,
    sparse_size_bytes,
    sparsity,
    structured_prune_dense,
)
from .quantization import (
    QuantizationConfig,
    dequantize_array,
    fake_quantize,
    quantize_array,
    quantize_model,
    static_fake_quantize,
)

__all__ = [
    "QuantizationConfig",
    "quantize_array",
    "dequantize_array",
    "fake_quantize",
    "static_fake_quantize",
    "quantize_model",
    "magnitude_prune",
    "structured_prune_dense",
    "sparsity",
    "sparse_size_bytes",
    "distill",
    "soft_label_dataset",
    "factorize_dense_model",
    "dense_rank_for_compression",
    "ModelVariant",
    "VariantGenerator",
    "pareto_front",
]
