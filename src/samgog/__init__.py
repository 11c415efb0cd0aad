"""Sampled graph-of-graphs learning for imbalanced graph classification."""

from .data import (
    GraphDataset,
    SplitSpec,
    build_features,
    compute_class_imbalance_ratio,
    compute_size_imbalance_ratio,
    head_tail_partition,
    make_class_imbalanced_split,
    make_planted_dataset,
    parse_tudataset,
)
from .degree_alloc import AllocConfig, DegreeAllocation, allocate_degrees
from .downstream import (
    GoGClassifierConfig,
    MetricsReport,
    PipelineResult,
    compute_metrics,
    downstream_forward,
    train_encoder_baseline,
    train_full_pipeline,
)
from .encoder import EncoderConfig, encode_dataset, supervised_loss_and_grad
from .sampler import GoGGraph, SamplerConfig, edge_homophily
from .similarity import (
    FactorSimilarity,
    build_prob_matrix,
    expected_homophily,
    similarity_matrix,
)

__version__ = "0.1.0"
