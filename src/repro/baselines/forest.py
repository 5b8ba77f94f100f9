"""A from-scratch random-forest regressor (the Pyramid-style baseline).

Pyramid (Makrani et al., FPL 2019) estimates HLS resource usage with an
ensemble of traditional models — Random Forests chief among them.  This
module implements CART regression trees (variance-reduction splits) and
a bootstrap-aggregated forest with per-split feature subsampling, used
as a design-level baseline over graph-statistics features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphir import CompiledGraph, Vocabulary

__all__ = ["DecisionTreeRegressor", "RandomForestRegressor", "ForestDesignModel"]


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor:
    """CART regression tree minimizing within-node variance."""

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 2,
                 max_features: int | None = None,
                 rng: np.random.Generator | None = None):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1: {max_depth}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng or np.random.default_rng(0)
        self._root: _Node | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError(f"bad shapes: X {X.shape}, y {y.shape}")
        self._root = self._build(X, y, depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf \
                or np.allclose(y, y[0]):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n_features = X.shape[1]
        k = self.max_features or n_features
        candidates = self._rng.choice(n_features, size=min(k, n_features),
                                      replace=False)
        best = None
        best_score = np.inf
        total = len(y)
        for feature in candidates:
            values = np.unique(X[:, feature])
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                mask = X[:, feature] <= threshold
                n_left = int(mask.sum())
                if n_left < self.min_samples_leaf or total - n_left < self.min_samples_leaf:
                    continue
                score = (y[mask].var() * n_left
                         + y[~mask].var() * (total - n_left))
                if score < best_score:
                    best_score = score
                    best = (int(feature), float(threshold))
        return best

    # ------------------------------------------------------------------ #
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("fit() must be called before predict()")
        X = np.asarray(X, dtype=np.float64)
        return np.array([self._predict_one(row) for row in X])

    def _predict_one(self, row: np.ndarray) -> float:
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def depth(self) -> int:
        def walk(node, d):
            if node is None or node.is_leaf:
                return d
            return max(walk(node.left, d + 1), walk(node.right, d + 1))
        return walk(self._root, 0)


class RandomForestRegressor:
    """Bootstrap-aggregated CART trees with sqrt-feature subsampling."""

    def __init__(self, n_trees: int = 30, max_depth: int = 8,
                 min_samples_leaf: int = 2, seed: int = 0):
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1: {n_trees}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self._trees: list[DecisionTreeRegressor] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        max_features = max(1, int(np.sqrt(d)))
        self._trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)  # bootstrap sample
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=np.random.default_rng(rng.integers(2 ** 31)))
            tree.fit(X[idx], y[idx])
            self._trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("fit() must be called before predict()")
        return np.mean([tree.predict(X) for tree in self._trees], axis=0)


class ForestDesignModel:
    """Design-level [timing, area, power] via one forest per target."""

    def __init__(self, n_trees: int = 30, seed: int = 0,
                 vocab: Vocabulary | None = None):
        self.vocab = vocab or Vocabulary.standard()
        self._forests = [RandomForestRegressor(n_trees=n_trees, seed=seed + i)
                         for i in range(3)]

    def featurize(self, graph: CompiledGraph) -> np.ndarray:
        return np.log1p(np.concatenate([
            graph.stats_vector(self.vocab),
            graph.structural_features(),
            graph.weighted_features(),
        ]))

    def fit(self, graphs: list[CompiledGraph], labels: np.ndarray) -> "ForestDesignModel":
        X = np.stack([self.featurize(g) for g in graphs])
        logs = np.log1p(np.asarray(labels, dtype=np.float64))
        for i, forest in enumerate(self._forests):
            forest.fit(X, logs[:, i])
        return self

    def predict(self, graphs: list[CompiledGraph]) -> np.ndarray:
        X = np.stack([self.featurize(g) for g in graphs])
        out = np.stack([forest.predict(X) for forest in self._forests], axis=1)
        return np.expm1(out).clip(min=0.0)
