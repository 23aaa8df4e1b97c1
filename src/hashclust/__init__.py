"""Distributed clustering over learned binary hash codes.

Sites train a shared hash network by exchanging gradients with a
coordinator, map their local data to short binary codes, and ship only the
deduplicated codes (with multiplicities) upstream; the coordinator clusters
the resulting code graph with a normalized-cut spectral method. Every bit
that crosses a site boundary is accounted.
"""

from .codebook import Codebook, encode_shard, merge_codebooks
from .datasets import (
    ClusterSpec,
    Shard,
    gen_cluster,
    gen_dataset,
    load_csv,
    make_dataset_spec,
    save_csv,
    shard_dataset,
)
from .errors import HashClustError
from .loss import LossConfig, batch_loss
from .metrics import CostLedger, nmi, purity, total_cost_bits
from .network import (
    LayerSpec,
    NetworkParams,
    forward,
    backward,
    init_network,
    mlp_spec,
    param_count,
)
from .pipeline import PipelineConfig, config_from_file, run_generate, run_pipeline, run_report
from .sampling import build_buckets, select_batch
from .spectral import build_graph, propagate_labels, spectral_cluster
from .training import (
    TrainingConfig,
    global_merge,
    local_round,
    relative_error_ratio,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "ClusterSpec",
    "CostLedger",
    "HashClustError",
    "LayerSpec",
    "LossConfig",
    "NetworkParams",
    "PipelineConfig",
    "Shard",
    "TrainingConfig",
    "backward",
    "batch_loss",
    "build_buckets",
    "build_graph",
    "config_from_file",
    "encode_shard",
    "forward",
    "gen_cluster",
    "gen_dataset",
    "global_merge",
    "init_network",
    "load_csv",
    "local_round",
    "make_dataset_spec",
    "merge_codebooks",
    "mlp_spec",
    "nmi",
    "param_count",
    "propagate_labels",
    "purity",
    "relative_error_ratio",
    "run_generate",
    "run_pipeline",
    "run_report",
    "save_csv",
    "select_batch",
    "shard_dataset",
    "spectral_cluster",
    "total_cost_bits",
    "train",
]
