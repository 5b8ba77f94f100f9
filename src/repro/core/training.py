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

The public :func:`train_circuitformer` / :func:`train_aggregator` route
through :class:`repro.runtime.trainer.TrainingEngine` (fused in-place
optimizer steps, graph-freeing backward, epoch-persistent encodings, and
— when ``TrainingConfig.bucketed`` is set — length-bucketed
minibatching).  The original allocate-per-step loops are kept verbatim
as :func:`train_circuitformer_reference` /
:func:`train_aggregator_reference`: they are the bit-parity oracle for
the engine's compatibility mode and the baseline for the training
throughput benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..datagen.dataset import DesignRecord, PathRecord
from .aggregator import AggregationMLP
from .circuitformer import Circuitformer, TargetScaler, encode_batch
from .sampler import PathSampler

__all__ = ["PAPER_HYPERPARAMS", "TrainingConfig", "EpochStats",
           "train_circuitformer", "train_aggregator",
           "train_circuitformer_reference", "train_aggregator_reference"]

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
    from ``config`` (pass ``engine`` to share one — and its encoding
    cache/profiles — across calls).
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


def train_circuitformer_reference(model: Circuitformer, records: list[PathRecord],
                                  config: TrainingConfig | None = None,
                                  verbose: bool = False) -> list[EpochStats]:
    """The seed implementation's training loop, kept verbatim.

    Pads every batch to the longest record, allocates a fresh autograd
    graph per step without freeing it eagerly, and updates weights with
    the allocate-per-step :class:`~repro.nn.ReferenceAdam`.  The engine's
    compatibility mode must match this loop to the last bit (parity
    tested); the training throughput benchmark uses it as the baseline.
    """
    config = config or TrainingConfig()
    if len(records) < 4:
        raise ValueError(f"need at least 4 path records, got {len(records)}")
    rng = np.random.default_rng(config.seed)

    labels = np.stack([r.labels for r in records])
    model.scaler = TargetScaler.fit(labels)
    targets = model.scaler.transform(labels)

    max_len = min(model.config.max_input_size - 1,
                  max(len(r.tokens) for r in records))
    ids, mask = encode_batch([r.tokens for r in records], model.vocab, max_len)

    n = len(records)
    n_val = max(1, int(round(config.validation_fraction * n)))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    opt = nn.ReferenceAdam(model.parameters(), lr=config.circuitformer_lr)
    history: list[EpochStats] = []
    for epoch in range(config.circuitformer_epochs):
        model.train()
        order = rng.permutation(train_idx)
        train_losses = []
        for lo in range(0, len(order), config.circuitformer_batch):
            batch = order[lo:lo + config.circuitformer_batch]
            pred = model.forward(ids[batch], mask[batch])
            loss = nn.mse_loss(pred, targets[batch])
            opt.zero_grad()
            loss.backward(free_graph=False)
            nn.clip_grad_norm(model.parameters(), 5.0)
            opt.step()
            train_losses.append(loss.item())
        model.eval()
        with nn.no_grad():
            val_pred = model.forward(ids[val_idx], mask[val_idx])
            val_loss = nn.mse_loss(val_pred, targets[val_idx]).item()
        stats = EpochStats(epoch, float(np.mean(train_losses)), val_loss)
        history.append(stats)
        if verbose:
            print(f"[circuitformer] epoch {epoch:3d} "
                  f"train {stats.train_loss:.4f} val {stats.val_loss:.4f}")
    return history


def train_aggregator_reference(mlp: AggregationMLP, designs: list[DesignRecord],
                               circuitformer: Circuitformer, sampler: PathSampler,
                               config: TrainingConfig | None = None,
                               verbose: bool = False) -> list[float]:
    """The seed implementation's aggregator loop, kept verbatim
    (see :func:`train_circuitformer_reference`)."""
    from .aggregator import featurize_design

    config = config or TrainingConfig()
    if len(designs) < 2:
        raise ValueError(f"need at least 2 design records, got {len(designs)}")
    rng = np.random.default_rng(config.seed + 1)

    features = []
    for record in designs:
        paths = sampler.sample(record.graph)
        preds = circuitformer.predict_paths([p.tokens for p in paths])
        features.append(featurize_design(record.graph, preds, paths,
                                         circuitformer.vocab))
    labels = np.stack([d.labels for d in designs])

    # Stage 1: closed-form physics calibration (area, energy, timing scale).
    mlp.fit_physics(features, labels)
    physics = np.stack([mlp.physics_predict(f) for f in features])

    # Stage 2: the per-target residual MLPs.
    log_inputs = np.stack([f.log_vector(p) for f, p in zip(features, physics)])
    residuals = np.log1p(labels) - np.log1p(physics)
    mlp.fit_scalers(log_inputs, residuals)
    targets = (residuals - mlp.residual_mean) / mlp.residual_std

    params = [p for head in mlp.heads for p in head.parameters()]
    opt = nn.ReferenceAdam(params, lr=config.aggregator_lr,
                           weight_decay=config.aggregator_weight_decay)

    n = len(designs)
    curve: list[float] = []
    for epoch in range(config.aggregator_epochs):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, config.aggregator_batch):
            batch = order[lo:lo + config.aggregator_batch]
            total = None
            for t in range(3):
                pred = mlp.forward(log_inputs[batch], t).reshape(len(batch))
                loss = nn.mse_loss(pred, targets[batch, t])
                total = loss if total is None else total + loss
            opt.zero_grad()
            total.backward(free_graph=False)
            nn.clip_grad_norm(params, 5.0)
            opt.step()
            losses.append(total.item() / 3.0)
        curve.append(float(np.mean(losses)))
        if verbose and epoch % max(1, config.aggregator_epochs // 10) == 0:
            print(f"[aggregator] epoch {epoch:4d} loss {curve[-1]:.4f}")
    return curve
