"""Fixed-dimensional embeddings for variable-length feature sequences.

Sequence-autoencoder training (plain and denoising), segment-average and
DTW baselines, cosine retrieval, and ranked-retrieval evaluation.
"""

from .autoencoder import (
    ModelParams,
    TrainConfig,
    corrupt_zero_mask,
    decode,
    encode,
    encode_batch,
    init_params,
    load_checkpoint,
    reconstruction_loss,
    save_checkpoint,
    train,
)
from .baselines import dtw_distance, dtw_path, naive_encode
from .data import (
    Dataset,
    SegmentRecord,
    generate_synthetic,
    parse_manifest,
    read_manifest,
    write_manifest,
)
from .evaluation import (
    average_precision,
    mean_average_precision,
    phoneme_edit_distance,
    project_2d,
    similarity_table,
    word_difference_vectors,
)
from .retrieval import (
    EmbeddingArchive,
    build_archive,
    cosine_matrix,
    dtw_matrix,
    load_archive,
    rank,
    rank_dtw,
    save_archive,
)

__all__ = [
    "Dataset",
    "EmbeddingArchive",
    "ModelParams",
    "SegmentRecord",
    "TrainConfig",
    "average_precision",
    "build_archive",
    "corrupt_zero_mask",
    "cosine_matrix",
    "decode",
    "dtw_distance",
    "dtw_matrix",
    "dtw_path",
    "encode",
    "encode_batch",
    "generate_synthetic",
    "init_params",
    "load_archive",
    "load_checkpoint",
    "mean_average_precision",
    "naive_encode",
    "parse_manifest",
    "phoneme_edit_distance",
    "project_2d",
    "rank",
    "rank_dtw",
    "read_manifest",
    "reconstruction_loss",
    "save_archive",
    "save_checkpoint",
    "similarity_table",
    "train",
    "word_difference_vectors",
    "write_manifest",
]
