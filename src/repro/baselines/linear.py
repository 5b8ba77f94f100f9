"""Linear-regression baselines.

Section 3.3 motivates the Circuitformer by noting that "the simplest and
most intuitive model ... is a linear regression model that takes counts
of each type of vertices on a circuit path as inputs" — and that such a
model cannot distinguish [mul, add] from [add, mul].  This module
implements that baseline at both path level and design level (ridge
regression in closed form, fitted on log targets).
"""

from __future__ import annotations

import numpy as np

from ..graphir import CompiledGraph, Vocabulary

__all__ = ["RidgeRegression", "PathCountLinearModel", "DesignStatsLinearModel"]


class RidgeRegression:
    """Closed-form ridge regression: w = (X'X + aI)^-1 X'y (with bias)."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
        self.weights: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError(f"bad shapes: X {X.shape}, y {y.shape}")
        Xb = np.hstack([X, np.ones((len(X), 1))])
        d = Xb.shape[1]
        reg = self.alpha * np.eye(d)
        reg[-1, -1] = 0.0  # don't penalize the bias
        self.weights = np.linalg.solve(Xb.T @ Xb + reg, Xb.T @ y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("fit() must be called before predict()")
        X = np.asarray(X, dtype=np.float64)
        Xb = np.hstack([X, np.ones((len(X), 1))])
        return Xb @ self.weights


class PathCountLinearModel:
    """Per-path [timing, area, power] from bag-of-token counts.

    By construction this model is order-blind: permuting a path's tokens
    cannot change its prediction (the property the Circuitformer fixes).
    """

    def __init__(self, alpha: float = 1.0, vocab: Vocabulary | None = None):
        self.vocab = vocab or Vocabulary.standard()
        self._model = RidgeRegression(alpha)

    def featurize(self, tokens: tuple[str, ...]) -> np.ndarray:
        counts = np.zeros(self.vocab.circuit_size + 1)
        for t in tokens:
            counts[self.vocab.id_of(t) - self.vocab.NUM_SPECIAL] += 1
        counts[-1] = len(tokens)
        return counts

    def fit(self, token_seqs: list[tuple[str, ...]], labels: np.ndarray) -> "PathCountLinearModel":
        X = np.stack([self.featurize(t) for t in token_seqs])
        self._model.fit(X, np.log1p(np.asarray(labels, dtype=np.float64)))
        return self

    def predict(self, token_seqs: list[tuple[str, ...]]) -> np.ndarray:
        X = np.stack([self.featurize(t) for t in token_seqs])
        return np.expm1(self._model.predict(X)).clip(min=0.0)


class DesignStatsLinearModel:
    """Design-level [timing, area, power] from graph statistics alone."""

    def __init__(self, alpha: float = 1.0, vocab: Vocabulary | None = None):
        self.vocab = vocab or Vocabulary.standard()
        self._model = RidgeRegression(alpha)

    def featurize(self, graph: CompiledGraph) -> np.ndarray:
        return np.log1p(np.concatenate([
            graph.stats_vector(self.vocab),
            graph.structural_features(),
        ]))

    def fit(self, graphs: list[CompiledGraph], labels: np.ndarray) -> "DesignStatsLinearModel":
        X = np.stack([self.featurize(g) for g in graphs])
        self._model.fit(X, np.log1p(np.asarray(labels, dtype=np.float64)))
        return self

    def predict(self, graphs: list[CompiledGraph]) -> np.ndarray:
        X = np.stack([self.featurize(g) for g in graphs])
        return np.expm1(self._model.predict(X)).clip(min=0.0)
