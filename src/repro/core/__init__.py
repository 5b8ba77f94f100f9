"""``repro.core`` — the SNS predictor (the paper's primary contribution).

Prediction flow (Figure 1): GraphIR -> complete-circuit-path sampling
(Algorithm 1) -> Circuitformer per-path inference -> Aggregation MLP
design-level prediction.  Training flow (Figure 4) lives in
:mod:`repro.core.training`; evaluation metrics (RRSE/MAEP) in
:mod:`repro.core.metrics`.
"""

from .sampler import PathSampler, SampledPath
from .metrics import rrse, maep
from .circuitformer import Circuitformer, CircuitformerConfig, TargetScaler, encode_batch
from .aggregator import (
    AggregationMLP,
    DesignFeatures,
    featurize_design,
    reduce_paths,
    path_statistics,
    FEATURE_DIM,
)
from .training import (
    PAPER_HYPERPARAMS,
    TrainingConfig,
    EpochStats,
    train_circuitformer,
    train_aggregator,
)
from .predictor import SNS, SNSPrediction
from .persistence import save_sns, load_sns
from .related import TABLE8_ROWS, TABLE8_SYSTEMS, qualitative_comparison, format_table8

__all__ = [
    "PathSampler", "SampledPath",
    "rrse", "maep",
    "Circuitformer", "CircuitformerConfig", "TargetScaler", "encode_batch",
    "AggregationMLP", "DesignFeatures", "featurize_design",
    "reduce_paths", "path_statistics", "FEATURE_DIM",
    "PAPER_HYPERPARAMS", "TrainingConfig", "EpochStats",
    "train_circuitformer", "train_aggregator",
    "SNS", "SNSPrediction", "save_sns", "load_sns",
    "TABLE8_ROWS", "TABLE8_SYSTEMS", "qualitative_comparison", "format_table8",
]
