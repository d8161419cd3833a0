"""apgf: attack-path inference on weighted graphs.

A graph-attention encoder-decoder policy, trained with REINFORCE
against a frozen greedy baseline, learns to pick high-score attack
paths on random weighted graphs; an exact oracle search provides the
ground truth it is compared to.
"""

__version__ = "0.1.0"

from .errors import ApgfError, CapExceededError, GraphFormatError, NumericError, ValidationError
from .graphgen import WeightedGraph, generate_random_graph, load_graph, save_graph
from .model import (
    ModelParams,
    copy_params,
    edge_scores,
    encode,
    init_params,
    load_checkpoint,
    param_spec,
    save_checkpoint,
)
from .numcore import AdamState, Tape, adam_step
from .oracle import ComparisonReport, OracleResult, brute_force_scores, compare
from .rollout import RolloutResult, ScoreConfig, decode_all, path_score
from .trainer import EpochMetrics, TrainConfig, evaluate, reinforce_loss, train

__all__ = [
    "ApgfError",
    "CapExceededError",
    "GraphFormatError",
    "NumericError",
    "ValidationError",
    "WeightedGraph",
    "generate_random_graph",
    "load_graph",
    "save_graph",
    "ModelParams",
    "copy_params",
    "edge_scores",
    "encode",
    "init_params",
    "load_checkpoint",
    "param_spec",
    "save_checkpoint",
    "AdamState",
    "Tape",
    "adam_step",
    "ComparisonReport",
    "OracleResult",
    "brute_force_scores",
    "compare",
    "RolloutResult",
    "ScoreConfig",
    "decode_all",
    "path_score",
    "EpochMetrics",
    "TrainConfig",
    "evaluate",
    "reinforce_loss",
    "train",
]
