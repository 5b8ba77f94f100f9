"""The aggregation stage (Section 3.4).

Path-level predictions are reduced per target — **max** for timing (the
critical path), **sum** for area and power (paths tile the design) — and
the reduction, together with the design's graph statistics, feeds the
design-level regressor.

The regressor is a calibrated two-stage model:

1. **Physics layer** (closed form, deterministic).  Area and
   energy-per-cycle are *additive* over functional units, so both are
   fitted as weighted-least-squares linear models over the raw token
   counts and width-weighted aggregates; timing is the Circuitformer's
   max-path reduction times a single calibration factor; power is
   energy / timing.  With only ~20 training designs this anchors the
   predictions with the right inductive bias.
2. **MLP residual** — the paper's three-fully-connected-layers-of-32
   per-target MLP, regressing the standardized log residual between the
   physics prediction and the synthesized label.

Power gating (Section 3.4.4): when per-register activity coefficients
are supplied, each path's power is scaled by the activity of its
endpoint registers before the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..graphir import (
    NUM_STRUCTURAL_FEATURES,
    NUM_WEIGHTED_FEATURES,
    CompiledGraph,
    Vocabulary,
)
from .sampler import SampledPath

__all__ = ["reduce_paths", "path_statistics", "DesignFeatures", "featurize_design",
           "AggregationMLP", "FEATURE_DIM", "LOG_FEATURE_DIM"]

TARGETS = ("timing", "area", "power")


def reduce_paths(path_preds: np.ndarray,
                 paths: list[SampledPath] | None = None,
                 activity: dict[int, float] | None = None) -> np.ndarray:
    """Reduce per-path [timing, area, power] rows to design-level values.

    timing -> max, area -> sum, power -> (activity-scaled) sum.
    """
    path_preds = np.asarray(path_preds, dtype=np.float64)
    if path_preds.size == 0:
        return np.zeros(3)
    power = path_preds[:, 2]
    if activity and paths is not None:
        scale = np.array([_path_activity(path, activity) for path in paths])
        power = power * scale
    return np.array([
        path_preds[:, 0].max(),
        path_preds[:, 1].sum(),
        power.sum(),
    ])


def _path_activity(path: SampledPath, activity: dict[int, float]) -> float:
    """Effective power scale of a path under the given register activity.

    The coefficient ratio (vs the default register activity) applies to
    the path's *sequential* energy share; the combinational share only
    scales down (a gated register stops its downstream cone toggling,
    but a hot register cannot push combinational activity above its
    data-rate default).  The sequential share is estimated from token
    widths.
    """
    from ..graphir import parse_token
    from ..synth.power import DEFAULT_SEQ_ACTIVITY

    coeffs = [activity[n] for n in (path.node_ids[0], path.node_ids[-1]) if n in activity]
    if not coeffs:
        return 1.0
    ratio = float(np.mean(coeffs)) / DEFAULT_SEQ_ACTIVITY

    seq_width = total_width = 0
    for token in path.tokens:
        node_type, width = parse_token(token)
        total_width += width
        if node_type == "dff":
            seq_width += width
    seq_fraction = seq_width / total_width if total_width else 0.5
    return seq_fraction * ratio + (1.0 - seq_fraction) * min(ratio, 1.0)


def path_statistics(path_preds: np.ndarray,
                    paths: list[SampledPath] | None = None) -> np.ndarray:
    """Distributional statistics of the per-path predictions.

    [mean timing, p90 timing, mean area, mean power, num paths,
     max path length, mean path length]
    """
    if path_preds is None or len(path_preds) == 0:
        return np.zeros(7)
    path_preds = np.asarray(path_preds, dtype=np.float64)
    lengths = [len(p) for p in paths] if paths else [0]
    return np.array([
        path_preds[:, 0].mean(),
        np.percentile(path_preds[:, 0], 90),
        path_preds[:, 1].mean(),
        path_preds[:, 2].mean(),
        len(path_preds),
        max(lengths),
        float(np.mean(lengths)),
    ])


# ---------------------------------------------------------------------- #
# Featurization
# ---------------------------------------------------------------------- #
NUM_PATH_STATS = 7
LINEAR_FEATURE_DIM = 79 + NUM_STRUCTURAL_FEATURES + NUM_WEIGHTED_FEATURES
LOG_FEATURE_DIM = 3 + NUM_PATH_STATS + LINEAR_FEATURE_DIM + 3  # + physics preds
FEATURE_DIM = LOG_FEATURE_DIM  # public alias


@dataclass(frozen=True)
class DesignFeatures:
    """Everything the aggregation stage knows about one design."""

    reduction: np.ndarray       # (3,) max/sum/sum of path predictions
    path_stats: np.ndarray      # (7,)
    counts: np.ndarray          # (79,) raw token histogram
    structural: np.ndarray      # (6,) raw
    weighted: np.ndarray        # (7,) raw width-weighted aggregates

    @property
    def linear_vector(self) -> np.ndarray:
        """Raw additive features for the physics layer."""
        return np.concatenate([self.counts, self.structural, self.weighted])

    def log_vector(self, physics: np.ndarray) -> np.ndarray:
        """Compressed features for the residual MLP."""
        return np.concatenate([
            np.log1p(np.maximum(self.reduction, 0.0)),
            np.log1p(np.maximum(self.path_stats, 0.0)),
            np.log1p(self.counts),
            np.log1p(self.structural),
            np.log1p(self.weighted),
            np.log1p(np.maximum(physics, 0.0)),
        ])


def featurize_design(graph: CompiledGraph, path_preds: np.ndarray,
                     paths: list[SampledPath],
                     vocab: Vocabulary | None = None) -> DesignFeatures:
    """Build the aggregation features for one design."""
    vocab = vocab or Vocabulary.standard()
    return DesignFeatures(
        reduction=reduce_paths(path_preds, paths),
        path_stats=path_statistics(path_preds, paths),
        counts=graph.stats_vector(vocab),
        structural=graph.structural_features(),
        weighted=graph.weighted_features(),
    )


# ---------------------------------------------------------------------- #
# The aggregation model
# ---------------------------------------------------------------------- #
def _wls_solve(X: np.ndarray, y: np.ndarray, alpha: float = 1e-3) -> np.ndarray:
    """Non-negative weighted least squares with 1/y weights.

    Per-unit physical costs are non-negative, and NNLS guarantees the
    fitted model never predicts negative area/energy on unseen designs
    (plain ridge does, for small designs outside the training hull).
    The 1/y weighting makes the objective relative rather than absolute,
    so small designs are not drowned out by big ones.
    """
    from scipy.optimize import nnls

    w = 1.0 / np.maximum(y, 1e-9)
    Xw = X * w[:, None]
    yw = y * w
    # Tikhonov rows keep the problem well-posed under NNLS.
    Xa = np.vstack([Xw, np.sqrt(alpha) * np.eye(X.shape[1])])
    ya = np.concatenate([yw, np.zeros(X.shape[1])])
    solution, _ = nnls(Xa, ya)
    return solution


class AggregationMLP(nn.Module):
    """Physics-anchored aggregation regressor (see module docstring)."""

    def __init__(self, hidden: int = 32, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.heads = [
            nn.Sequential(
                nn.Linear(LOG_FEATURE_DIM, hidden, rng=rng), nn.ReLU(),
                nn.Linear(hidden, hidden, rng=rng), nn.ReLU(),
                nn.Linear(hidden, hidden, rng=rng), nn.ReLU(),
                nn.Linear(hidden, 1, rng=rng),
            )
            for _ in TARGETS
        ]
        # Physics layer parameters (closed-form fitted).
        self.area_weights = np.zeros(LINEAR_FEATURE_DIM + 1)
        self.energy_weights = np.zeros(LINEAR_FEATURE_DIM + 1)
        self.timing_scale = 1.0
        # Standardization of the residual-MLP inputs/targets.
        self.input_mean = np.zeros(LOG_FEATURE_DIM)
        self.input_std = np.ones(LOG_FEATURE_DIM)
        self.residual_mean = np.zeros(len(TARGETS))
        self.residual_std = np.ones(len(TARGETS))
        self._physics_fitted = False

    # ------------------------------------------------------------------ #
    # Physics layer
    # ------------------------------------------------------------------ #
    def fit_physics(self, features: list[DesignFeatures], labels: np.ndarray,
                    alpha: float = 1e-3) -> None:
        """Fit the closed-form area/energy/timing calibration."""
        labels = np.asarray(labels, dtype=np.float64)
        X = np.stack([np.concatenate([f.linear_vector, [1.0]]) for f in features])
        self.area_weights = _wls_solve(X, labels[:, 1], alpha)
        energy = labels[:, 2] * labels[:, 0]  # power x period: per-cycle energy
        self.energy_weights = _wls_solve(X, energy, alpha)
        max_path = np.array([max(f.reduction[0], 1e-9) for f in features])
        self.timing_scale = float(np.exp(
            np.mean(np.log(np.maximum(labels[:, 0], 1e-9)) - np.log(max_path))))
        self._physics_fitted = True

    def physics_predict(self, features: DesignFeatures) -> np.ndarray:
        """Closed-form [timing, area, power] estimate."""
        if not self._physics_fitted:
            raise RuntimeError("fit_physics() must run before prediction")
        x = np.concatenate([features.linear_vector, [1.0]])
        timing = max(features.reduction[0], 1e-9) * self.timing_scale
        area = max(float(x @ self.area_weights), 1.0)
        energy = max(float(x @ self.energy_weights), 1e-9)
        power = energy / max(timing, 1e-9)
        return np.array([timing, area, power])

    # ------------------------------------------------------------------ #
    # Residual MLP
    # ------------------------------------------------------------------ #
    def fit_scalers(self, log_inputs: np.ndarray, residuals: np.ndarray) -> None:
        self.input_mean = log_inputs.mean(axis=0)
        std = log_inputs.std(axis=0)
        std[std == 0] = 1.0
        self.input_std = std
        self.residual_mean = residuals.mean(axis=0)
        rstd = residuals.std(axis=0)
        rstd[rstd == 0] = 1.0
        self.residual_std = rstd

    def _standardize(self, log_inputs: np.ndarray) -> np.ndarray:
        z = (log_inputs - self.input_mean) / self.input_std
        # Bound extrapolation on designs far outside the ~20-design
        # training distribution.
        return np.clip(z, -4.0, 4.0)

    def forward(self, log_inputs: np.ndarray, target_index: int) -> nn.Tensor:
        """Standardized log-residual prediction for one target head."""
        x = nn.Tensor(self._standardize(np.atleast_2d(log_inputs)))
        return self.heads[target_index](x)

    # ------------------------------------------------------------------ #
    def predict(self, features: DesignFeatures) -> np.ndarray:
        """Physical [timing, area, power] for one design."""
        physics = self.physics_predict(features)
        log_input = features.log_vector(physics)
        with nn.no_grad():
            self.eval()
            resid = np.array([
                self.forward(log_input, i).numpy().ravel()[0] for i in range(3)])
        resid = resid * self.residual_std + self.residual_mean
        return np.expm1(np.log1p(physics) + resid).clip(min=0.0)
