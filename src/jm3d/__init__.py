"""Tri-modal alignment for point clouds at desk scale: a trainable point
encoder pulled toward frozen image and text features through view fusion,
a two-level category tree, and a contrastive objective, all on a small
tape-based autodiff engine over float64 numpy.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ContractError, InputError, Jm3dError, LabelError,
                     ManifestError, NumericError, SamplingError, ShapeError)
from .autodiff import Tape, Tensor, constant, grad_check, info_nce
from .data import (CategoryTree, LoadedDataset, PointCloud, TripletSample,
                   ViewRecord, ViewSet, circular_distance, load_manifest, normalize_points,
                   resolve_label, sample_within_window, stratified_split,
                   write_manifest)
from .synth import SynthConfig, synth_generate
from .encoders import (FrozenEncoderSpec, PointEncoderParams, ViewEmbeddingTables,
                       embed_view, encode_image_frozen, encode_point_cloud,
                       encode_text_frozen, init_point_encoder,
                       point_encoder_from_values)
from .alignment import (AlignmentHeads, LossWeights, N_CONTRASTIVE_TERMS,
                        contrastive_total, heads_from_values, init_alignment_heads,
                        jma_fuse, parent_class_loss, total_loss)
from .training import (Checkpoint, OptimizerState, TrainConfig, adamw_step,
                       cosine_lr, load_checkpoint, point_features,
                       save_checkpoint, train)
from .evaluation import (EvalSet, PromptTemplate, accuracy_topk,
                         build_label_features, modelnet_eval_sets,
                         retrieve_by_image, zero_shot_topk)

__all__ = [
    "__version__",
    "Jm3dError", "ShapeError", "ContractError", "NumericError", "InputError",
    "ConfigError", "SamplingError", "LabelError", "ManifestError",
    "Tape", "Tensor", "constant", "grad_check", "info_nce",
    "CategoryTree", "LoadedDataset", "PointCloud", "TripletSample", "ViewRecord",
    "ViewSet", "circular_distance", "load_manifest", "normalize_points", "resolve_label",
    "sample_within_window", "stratified_split", "write_manifest",
    "SynthConfig", "synth_generate",
    "FrozenEncoderSpec", "PointEncoderParams", "ViewEmbeddingTables",
    "embed_view", "encode_image_frozen", "encode_point_cloud",
    "encode_text_frozen", "init_point_encoder", "point_encoder_from_values",
    "AlignmentHeads", "LossWeights", "N_CONTRASTIVE_TERMS", "contrastive_total",
    "heads_from_values", "init_alignment_heads", "jma_fuse",
    "parent_class_loss", "total_loss",
    "Checkpoint", "OptimizerState", "TrainConfig", "adamw_step", "cosine_lr",
    "load_checkpoint", "point_features", "save_checkpoint", "train",
    "EvalSet", "PromptTemplate", "accuracy_topk", "build_label_features",
    "modelnet_eval_sets", "retrieve_by_image", "zero_shot_topk",
]
