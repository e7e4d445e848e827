"""Multimodal ASR error correction toolkit.

A desk-scale library: a float64 autograd core, a toy encoder-decoder
corrector, gated visual fusion, caption prompting, similarity-filtered
sequential correction, dataset construction, and WER/SER evaluation.
"""

from .autograd import (GradientError, ShapeError, Tensor, backward, concat_last_dim,
                       layer_norm, matmul, no_grad, softmax_cross_entropy)
from .checkpoint import average_checkpoints, load_checkpoint, save_checkpoint
from .data import (NoiseConfig, SampleRecord, filter_by_similarity,
                   frame_midpoint, generate_synthetic, read_manifest,
                   split_dataset, write_manifest)
from .fusion import GatedFusionLayer, ImageFeature, zero_feature
from .metrics import EvalReport, corpus_eval, word_edit_distance
from .model import DecodeConfig, EncoderDecoderModel, ModelConfig, generate, train_step
from .optim import Adam
from .pipeline import CorrectionModels, CorrectionResult, PipelineConfig, run_variant
from .prompting import assign_random_captions, build_prompted_source, split_prompted_source
from .similarity import CosineEmbeddingProvider, cosine
from .text import TokenSequence, Vocabulary, build_vocab, decode, encode, normalize_text
from .training import TrainingRecipe, run_training

__version__ = "0.1.0"

__all__ = [
    "Adam", "CorrectionModels", "CorrectionResult",
    "CosineEmbeddingProvider", "DecodeConfig", "EncoderDecoderModel",
    "EvalReport", "GatedFusionLayer", "GradientError", "ImageFeature",
    "ModelConfig", "NoiseConfig", "PipelineConfig", "SampleRecord",
    "ShapeError", "Tensor", "TokenSequence", "TrainingRecipe",
    "Vocabulary", "assign_random_captions", "average_checkpoints",
    "backward", "build_prompted_source", "build_vocab", "concat_last_dim",
    "corpus_eval", "cosine", "decode", "encode", "filter_by_similarity",
    "frame_midpoint", "generate", "generate_synthetic", "layer_norm",
    "load_checkpoint", "matmul", "no_grad", "normalize_text",
    "read_manifest", "run_training", "run_variant", "save_checkpoint",
    "softmax_cross_entropy", "split_dataset", "split_prompted_source",
    "train_step", "word_edit_distance", "write_manifest", "zero_feature",
]
