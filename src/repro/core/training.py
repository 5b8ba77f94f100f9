"""Model training (Section 4.3, Figure 4, Table 6).

Two models train here:

- the **Circuitformer**, with Adam on the Circuit Path Dataset
  (paper: batch 128, lr 0.001, 256 epochs);
- the **Aggregation MLP**, with SGD on the Hardware Design Dataset plus
  the Circuitformer's per-path predictions (paper: batch 64, lr 0.0001,
  10240 epochs).

The paper's epoch counts assume GPU training; defaults here are scaled to
CPU-tractable values and every count is configurable (the Table 6 bench
prints both).

:func:`train_circuitformer` / :func:`train_aggregator` route through
:class:`repro.runtime.trainer.TrainingEngine` (fused in-place optimizer
steps, graph-freeing backward, epoch-persistent encodings, and — when
``TrainingConfig.bucketed`` is set — length-bucketed minibatching).  The
original allocate-per-step loops live on in
``tests/oracles/training.py``: the bit-parity oracle for the engine's
compatibility mode and the baseline of the training throughput
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datagen.dataset import DesignRecord, PathRecord
from .aggregator import AggregationMLP
from .circuitformer import Circuitformer
from .sampler import PathSampler

__all__ = ["PAPER_HYPERPARAMS", "TrainingConfig", "EpochStats",
           "train_circuitformer", "train_aggregator"]

# Table 6 of the paper, verbatim.
PAPER_HYPERPARAMS = {
    "circuitformer": {"optimizer": "Adam", "batch_size": 128, "lr": 0.001, "epochs": 256},
    "aggregation_mlp": {"optimizer": "SGD", "batch_size": 64, "lr": 0.0001, "epochs": 10240},
    "seqgan": {"optimizer": "Adam", "batch_size": 2048, "lr": 0.01, "epochs": 130},
}


@dataclass
class TrainingConfig:
    """CPU-scaled training schedule (paper values in PAPER_HYPERPARAMS).

    ``bucketed`` selects length-bucketed minibatching (throughput mode;
    statistically equivalent curves under different padded widths);
    ``False`` keeps the seed implementation's pad-to-longest batches and
    reproduces its loss curves bit-for-bit.
    """

    circuitformer_epochs: int = 24
    circuitformer_batch: int = 128
    circuitformer_lr: float = 0.001
    aggregator_epochs: int = 400
    aggregator_batch: int = 16
    aggregator_lr: float = 0.01
    aggregator_weight_decay: float = 1e-3
    validation_fraction: float = 0.15
    seed: int = 0
    bucketed: bool = False


@dataclass
class EpochStats:
    """One row of the Figure 5 training/validation curve."""

    epoch: int
    train_loss: float
    val_loss: float


def train_circuitformer(model: Circuitformer, records: list[PathRecord],
                        config: TrainingConfig | None = None,
                        verbose: bool = False, engine=None) -> list[EpochStats]:
    """Fit the Circuitformer on the Circuit Path Dataset; returns curves.

    Delegates to a :class:`repro.runtime.trainer.TrainingEngine` built
    from ``config`` (pass ``engine`` to share one across calls).
    """
    from ..runtime.trainer import TrainingEngine

    config = config or TrainingConfig()
    engine = engine or TrainingEngine.from_config(config)
    return engine.train_circuitformer(model, records, config, verbose=verbose)


def train_aggregator(mlp: AggregationMLP, designs: list[DesignRecord],
                     circuitformer: Circuitformer, sampler: PathSampler,
                     config: TrainingConfig | None = None,
                     verbose: bool = False, engine=None,
                     features: list | None = None) -> list[float]:
    """Fit the Aggregation MLP on design-level labels (Figure 4, step 2).

    For every training design: sample paths, predict them with the
    trained Circuitformer, reduce (max/sum/sum), featurize with graph
    statistics, and regress the design's log labels.  Returns the
    per-epoch loss curve (averaged over the three target heads).
    ``features`` optionally carries precomputed
    ``TrainingEngine.prepare_design_features`` output.
    """
    from ..runtime.trainer import TrainingEngine

    config = config or TrainingConfig()
    engine = engine or TrainingEngine.from_config(config)
    return engine.train_aggregator(mlp, designs, circuitformer, sampler,
                                   config, verbose=verbose, features=features)
