"""Tests for the linear and D-SAGE baselines."""

import numpy as np
import pytest

from repro.baselines import (
    DesignStatsLinearModel,
    DSAGEConfig,
    DSAGETimingModel,
    PathCountLinearModel,
    RidgeRegression,
    segment_mean_neighbors,
)
from repro.graphir import CompiledGraph, GraphBuilder
from repro.nn import Tensor


class TestRidge:
    def test_recovers_linear_relation(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = X @ w + 3.0
        model = RidgeRegression(alpha=1e-6).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-6)

    def test_multi_output(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        Y = np.stack([X[:, 0] * 2, X[:, 1] - 1], axis=1)
        model = RidgeRegression(alpha=1e-6).fit(X, Y)
        assert model.predict(X).shape == (50, 2)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.ones((1, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.ones(3), np.ones(3))


class TestPathCountLinear:
    def test_order_blindness(self):
        """The defining failure mode: permuted paths predict identically."""
        model = PathCountLinearModel()
        seqs = [("io8", "mul16", "add16", "dff16"), ("dff16", "add16", "dff16")]
        labels = np.array([[100.0, 10.0, 1.0], [50.0, 5.0, 0.5]])
        model.fit(seqs, labels)
        a = model.predict([("io8", "mul16", "add16", "dff16")])
        b = model.predict([("io8", "add16", "mul16", "dff16")])
        np.testing.assert_allclose(a, b)

    def test_fits_count_based_labels(self):
        rng = np.random.default_rng(0)
        seqs, labels = [], []
        for _ in range(60):
            n = int(rng.integers(1, 8))
            seqs.append(("dff16",) + ("add16",) * n + ("dff16",))
            labels.append([10.0 * n, 5.0 * n, n])
        model = PathCountLinearModel(alpha=1e-3).fit(seqs, np.array(labels))
        pred = model.predict([("dff16",) + ("add16",) * 4 + ("dff16",)])
        assert pred[0, 0] == pytest.approx(40.0, rel=0.35)
        # and the count -> label trend is monotone
        short = model.predict([("dff16", "add16", "dff16")])[0, 0]
        long = model.predict([("dff16",) + ("add16",) * 7 + ("dff16",)])[0, 0]
        assert short < pred[0, 0] < long

    def test_predictions_nonnegative(self):
        model = PathCountLinearModel().fit(
            [("io8", "dff8"), ("dff8", "add8", "dff8")],
            np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))
        assert (model.predict([("io8", "dff8")]) >= 0).all()


def chain_graph(n_adders: int, width: int = 16) -> CompiledGraph:
    g = GraphBuilder(f"chain{n_adders}")
    prev = g.add_node("dff", width)
    for _ in range(n_adders):
        node = g.add_node("add", width)
        g.add_edge(prev, node)
        prev = node
    end = g.add_node("dff", width)
    g.add_edge(prev, end)
    return g.compile()


class TestDesignStatsLinear:
    def test_fits_node_count_relation(self):
        graphs = [chain_graph(n) for n in range(1, 12)]
        labels = np.array([[10.0 * g.num_nodes] * 3 for g in graphs])
        model = DesignStatsLinearModel(alpha=1e-3).fit(graphs, labels)
        pred = model.predict([chain_graph(6)])
        assert pred[0, 0] == pytest.approx(80.0, rel=0.3)


class TestSegmentMean:
    def test_forward_mean(self):
        x = Tensor(np.array([[1.0], [3.0], [5.0]]))
        # edges: 0->2, 1->2
        out = segment_mean_neighbors(x, np.array([0, 1]), np.array([2, 2]), 3)
        np.testing.assert_allclose(out.data, [[0.0], [0.0], [2.0]])

    def test_backward(self):
        x = Tensor(np.array([[1.0], [3.0], [5.0]]), requires_grad=True)
        out = segment_mean_neighbors(x, np.array([0, 1]), np.array([2, 2]), 3)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5], [0.5], [0.0]])

    def test_empty_edges(self):
        x = Tensor(np.ones((3, 2)))
        out = segment_mean_neighbors(x, np.zeros(0, dtype=int), np.zeros(0, dtype=int), 3)
        np.testing.assert_allclose(out.data, np.zeros((3, 2)))

    def test_mismatched_edges_raise(self):
        x = Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError):
            segment_mean_neighbors(x, np.array([0]), np.array([1, 2]), 3)


class TestDSAGE:
    def test_learns_depth_to_timing(self):
        """Deeper adder chains take longer; D-SAGE should capture the trend."""
        graphs = [chain_graph(n) for n in (1, 2, 3, 5, 7, 9, 12, 15)]
        timings = np.array([50.0 + 20.0 * n for n in (1, 2, 3, 5, 7, 9, 12, 15)])
        model = DSAGETimingModel(DSAGEConfig(epochs=80, hidden_size=16, seed=0))
        model.fit(graphs, timings)
        preds = model.predict([chain_graph(2), chain_graph(14)])
        assert preds[1] > preds[0]

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DSAGETimingModel().predict([chain_graph(2)])

    def test_too_few_graphs(self):
        with pytest.raises(ValueError):
            DSAGETimingModel().fit([chain_graph(1)], np.array([1.0]))

    def test_max_nodes_budget_respected(self):
        cfg = DSAGEConfig(epochs=2, max_nodes=5)
        graphs = [chain_graph(1), chain_graph(2), chain_graph(100)]
        model = DSAGETimingModel(cfg).fit(graphs, np.array([10.0, 20.0, 500.0]))
        # big graph excluded from training but still predictable
        assert model.predict([chain_graph(100)]).shape == (1,)

    def test_predictions_nonnegative(self):
        graphs = [chain_graph(n) for n in (1, 3, 5, 8)]
        model = DSAGETimingModel(DSAGEConfig(epochs=10, hidden_size=8))
        model.fit(graphs, np.array([10.0, 30.0, 50.0, 80.0]))
        assert (model.predict(graphs) >= 0).all()
