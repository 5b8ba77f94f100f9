"""Tests for the Circuitformer, Aggregation MLP, metrics, and Table 8 data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FEATURE_DIM,
    AggregationMLP,
    Circuitformer,
    CircuitformerConfig,
    PathSampler,
    TargetScaler,
    encode_batch,
    format_table8,
    maep,
    qualitative_comparison,
    reduce_paths,
    rrse,
)
from repro.core.sampler import SampledPath
from repro.graphir import GraphBuilder, Vocabulary


class TestMetrics:
    def test_rrse_perfect_prediction(self):
        assert rrse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_rrse_mean_predictor_is_one(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, actual.mean())
        assert rrse(pred, actual) == pytest.approx(1.0)

    def test_rrse_scale_invariant(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        pred = actual * 1.1
        assert rrse(pred, actual) == pytest.approx(rrse(pred * 1000, actual * 1000))

    def test_rrse_constant_actual(self):
        assert rrse([5.0, 5.0], [5.0, 5.0]) == 0.0
        assert rrse([5.0, 6.0], [5.0, 5.0]) == float("inf")

    def test_rrse_needs_two_samples(self):
        with pytest.raises(ValueError):
            rrse([1.0], [1.0])

    def test_maep_basic(self):
        assert maep([110.0, 90.0], [100.0, 100.0]) == pytest.approx(10.0)

    def test_maep_zero_actual_raises(self):
        with pytest.raises(ValueError):
            maep([1.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rrse([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            maep([1.0, 2.0], [1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1, 100), min_size=3, max_size=10))
    def test_property_rrse_nonnegative(self, actual):
        pred = [a * 1.2 for a in actual]
        assert rrse(pred, actual) >= 0.0


class TestTargetScaler:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        labels = np.abs(rng.normal(100, 50, size=(20, 3))) + 1
        scaler = TargetScaler.fit(labels)
        np.testing.assert_allclose(scaler.inverse(scaler.transform(labels)), labels, rtol=1e-9)

    def test_transform_standardizes(self):
        rng = np.random.default_rng(1)
        labels = np.exp(rng.normal(3, 1, size=(200, 3)))
        z = TargetScaler.fit(labels).transform(labels)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        labels = np.ones((5, 3))
        scaler = TargetScaler.fit(labels)
        z = scaler.transform(labels)
        assert np.isfinite(z).all()


TINY = CircuitformerConfig(embedding_size=16, dim_feedforward=32, max_input_size=32)


class TestCircuitformer:
    def test_table2_defaults(self):
        cfg = CircuitformerConfig()
        assert cfg.vocab_size == 79
        assert cfg.hidden_layers == 2
        assert cfg.attention_heads == 2
        assert cfg.embedding_size == 128
        assert cfg.max_input_size == 512

    def test_encode_batch_shapes(self):
        vocab = Vocabulary.standard()
        ids, mask = encode_batch([("io8", "mul16"), ("dff16",)], vocab, max_len=4)
        assert ids.shape == (2, 5)
        assert ids[0, 0] == vocab.CLS
        assert mask[1, 2:].all()      # padded tail
        assert not mask[0, :3].any()  # cls + two tokens

    def test_encode_truncates(self):
        vocab = Vocabulary.standard()
        ids, _ = encode_batch([("io8",) * 100], vocab, max_len=8)
        assert ids.shape == (1, 9)

    def test_forward_shape(self):
        model = Circuitformer(TINY)
        ids, mask = encode_batch([("io8", "mul16", "add16", "dff16")], model.vocab, 8)
        out = model.forward(ids, mask)
        assert out.shape == (1, 3)

    def test_rejects_overlong_input(self):
        model = Circuitformer(TINY)
        ids = np.zeros((1, 40), dtype=np.int64)
        with pytest.raises(ValueError):
            model.forward(ids, ids == 0)

    def test_vocab_mismatch_raises(self):
        with pytest.raises(ValueError):
            Circuitformer(CircuitformerConfig(vocab_size=50))

    def test_needs_an_encoder_layer(self):
        # Inference finishes the last layer on CLS rows, so there must be one.
        with pytest.raises(ValueError, match="hidden_layers"):
            Circuitformer(CircuitformerConfig(hidden_layers=0))

    def test_predict_paths_physical_nonnegative(self):
        model = Circuitformer(TINY)
        preds = model.predict_paths([("io8", "mul16", "add16", "dff16"),
                                     ("dff16", "add16", "dff16")])
        assert preds.shape == (2, 3)
        assert (preds >= 0).all()

    def test_predict_empty(self):
        model = Circuitformer(TINY)
        assert model.predict_paths([]).shape == (0, 3)

    def test_order_sensitivity_capacity(self):
        """Different orderings of the same tokens get different embeddings."""
        model = Circuitformer(TINY)
        a = model.predict_paths([("io8", "mul16", "add16", "dff16")])
        b = model.predict_paths([("io8", "add16", "mul16", "dff16")])
        assert not np.allclose(a, b)

    def test_padding_does_not_change_prediction(self):
        model = Circuitformer(TINY)
        model.eval()
        seq = ("io8", "mul16", "add16", "dff16")
        ids1, m1 = encode_batch([seq], model.vocab, 4)
        ids2, m2 = encode_batch([seq], model.vocab, 20)
        import repro.nn as nn
        with nn.no_grad():
            o1 = model.forward(ids1, m1).numpy()
            o2 = model.forward(ids2, m2).numpy()
        np.testing.assert_allclose(o1, o2, atol=1e-8)

    def test_learns_path_length(self):
        """Sanity: the model can fit a toy 'longer path = bigger label' rule."""
        import repro.nn as nn
        from repro.core import TrainingConfig, train_circuitformer
        from repro.datagen import PathRecord

        rng = np.random.default_rng(0)
        records = []
        for _ in range(60):
            n = int(rng.integers(1, 10))
            tokens = ("dff16",) + ("add16",) * n + ("dff16",)
            value = 100.0 * n
            records.append(PathRecord(tokens, value, value, value))
        model = Circuitformer(TINY, seed=0)
        history = train_circuitformer(
            model, records,
            TrainingConfig(circuitformer_epochs=30, circuitformer_batch=16))
        assert history[-1].train_loss < history[0].train_loss
        short = model.predict_paths([("dff16", "add16", "dff16")])[0, 0]
        long = model.predict_paths([("dff16",) + ("add16",) * 8 + ("dff16",)])[0, 0]
        assert long > short


class TestAggregator:
    def test_reduce_paths_semantics(self):
        preds = np.array([[10.0, 1.0, 0.1], [30.0, 2.0, 0.2], [20.0, 3.0, 0.3]])
        red = reduce_paths(preds)
        np.testing.assert_allclose(red, [30.0, 6.0, 0.6])

    def test_reduce_empty(self):
        np.testing.assert_array_equal(reduce_paths(np.zeros((0, 3))), np.zeros(3))

    def test_reduce_with_activity_scales_power(self):
        preds = np.array([[10.0, 1.0, 1.0]])
        path = SampledPath(node_ids=(0, 1), tokens=("dff16", "dff16"))
        from repro.synth.power import DEFAULT_SEQ_ACTIVITY
        red_gated = reduce_paths(preds, [path], activity={0: DEFAULT_SEQ_ACTIVITY / 2,
                                                          1: DEFAULT_SEQ_ACTIVITY / 2})
        red_plain = reduce_paths(preds, [path])
        assert red_gated[2] == pytest.approx(0.5 * red_plain[2])
        assert red_gated[0] == red_plain[0]  # timing untouched

    def _toy_features(self, n=12, seed=0):
        """Small synthetic DesignFeatures population with size variation."""
        from repro.core import DesignFeatures

        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            scale = float(rng.uniform(1, 50))
            out.append(DesignFeatures(
                reduction=np.array([100.0 * scale, 10.0 * scale, scale]),
                path_stats=np.abs(rng.normal(size=7)) * scale,
                counts=np.abs(rng.normal(size=79)) * scale,
                structural=np.abs(rng.normal(size=6)) * scale,
                weighted=np.abs(rng.normal(size=7)) * scale,
            ))
        return out

    def test_featurize_design(self):
        from repro.core import featurize_design

        b = GraphBuilder()
        a = b.add_node("io", 8)
        d = b.add_node("dff", 8)
        b.add_edge(a, d)
        g = b.compile()
        preds = np.array([[10.0, 1.0, 0.1]])
        from repro.core.sampler import SampledPath
        paths = [SampledPath((a, d), ("io8", "dff8"))]
        feats = featurize_design(g, preds, paths)
        assert feats.counts.sum() == 2
        np.testing.assert_allclose(feats.reduction, [10.0, 1.0, 0.1])

    def test_mlp_three_heads_of_three_layers(self):
        mlp = AggregationMLP()
        assert len(mlp.heads) == 3
        from repro.nn import Linear
        for head in mlp.heads:
            linears = [s for s in head if isinstance(s, Linear)]
            assert len(linears) == 4  # 3 hidden of 32 + output
            assert all(l.out_features == 32 for l in linears[:3])

    def test_physics_layer_recovers_additive_area(self):
        feats = self._toy_features(16)
        # area exactly additive in counts
        weights = np.abs(np.random.default_rng(1).normal(size=79))
        labels = np.stack([
            [f.reduction[0] * 2.0, f.counts @ weights + 5.0, 1.0]
            for f in feats])
        mlp = AggregationMLP()
        mlp.fit_physics(feats, labels)
        for f, lab in zip(feats[:4], labels[:4]):
            phys = mlp.physics_predict(f)
            assert phys[1] == pytest.approx(lab[1], rel=0.05)
            assert phys[0] == pytest.approx(lab[0], rel=0.05)

    def test_physics_before_fit_raises(self):
        mlp = AggregationMLP()
        with pytest.raises(RuntimeError):
            mlp.physics_predict(self._toy_features(1)[0])

    def test_predict_shape_and_domain(self):
        feats = self._toy_features(8)
        labels = np.abs(np.random.default_rng(2).normal(size=(8, 3))) * 100 + 1
        mlp = AggregationMLP()
        mlp.fit_physics(feats, labels)
        physics = np.stack([mlp.physics_predict(f) for f in feats])
        log_inputs = np.stack([f.log_vector(p) for f, p in zip(feats, physics)])
        residuals = np.log1p(labels) - np.log1p(physics)
        mlp.fit_scalers(log_inputs, residuals)
        out = mlp.predict(feats[0])
        assert out.shape == (3,)
        assert (out >= 0).all()


class TestTable8:
    def test_sns_capabilities(self):
        sns = qualitative_comparison("SNS")
        assert sns["Timing Prediction"] and sns["Area Prediction"] and sns["Power Prediction"]
        assert not sns["FPGA Design Prediction"]
        assert sns["Support Large Designs (>1M gates)"]

    def test_dsage_row_matches_paper(self):
        d = qualitative_comparison("D-SAGE")
        assert d["Timing Prediction"] and d["FPGA Design Prediction"]
        assert not d["Area Prediction"] and not d["Power Prediction"]

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            qualitative_comparison("GPT-9")

    def test_format_contains_all_rows(self):
        text = format_table8()
        assert "Timing Prediction" in text
        assert "SNS" in text
        assert text.count("\n") == 8


class TestPredictPathsDedup:
    def test_duplicates_get_identical_predictions(self):
        model = Circuitformer(TINY)
        seqs = [("io8", "mul16", "add16", "dff16"),
                ("dff16", "add16", "dff16"),
                ("io8", "mul16", "add16", "dff16")]
        preds = model.predict_paths(seqs)
        np.testing.assert_array_equal(preds[0], preds[2])
        assert preds.shape == (3, 3)

    def test_dedup_matches_naive_order(self):
        """Results come back in input order, not unique order."""
        model = Circuitformer(TINY)
        a = ("io8", "xor8", "dff8")
        b = ("dff16", "mul32", "dff32")
        batched = model.predict_paths([b, a, b, a])
        solo_a = model.predict_paths([a])[0]
        solo_b = model.predict_paths([b])[0]
        np.testing.assert_allclose(batched[0], solo_b, rtol=1e-12)
        np.testing.assert_allclose(batched[1], solo_a, rtol=1e-12)
        np.testing.assert_allclose(batched[2], solo_b, rtol=1e-12)
