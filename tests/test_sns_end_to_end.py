"""End-to-end tests for the SNS predictor (fit + predict, Figure 1/4 flows)."""

import numpy as np
import pytest

from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig, rrse
from repro.datagen import build_design_dataset, train_test_split_by_family
from repro.designs import standard_designs
from repro.synth import Synthesizer

TINY_CF = CircuitformerConfig(embedding_size=24, dim_feedforward=48, max_input_size=64)
FAST_TRAIN = TrainingConfig(circuitformer_epochs=8, aggregator_epochs=150)


@pytest.fixture(scope="module")
def fitted_sns():
    """A small trained SNS over a subset of the design dataset."""
    synth = Synthesizer(effort="low")
    records = build_design_dataset(standard_designs(), synth, max_nodes=800)
    train, test = train_test_split_by_family(records, 0.5, seed=0)
    sns = SNS(sampler=PathSampler(k=5, max_paths=50, seed=0),
              circuitformer_config=TINY_CF, training_config=FAST_TRAIN)
    sns.fit(train, synthesizer=synth)
    return sns, train, test


class TestFit:
    def test_history_populated(self, fitted_sns):
        sns, _, _ = fitted_sns
        assert len(sns.circuitformer_history) == FAST_TRAIN.circuitformer_epochs
        assert len(sns.aggregator_curve) == FAST_TRAIN.aggregator_epochs

    def test_training_reduces_loss(self, fitted_sns):
        sns, _, _ = fitted_sns
        cf = sns.circuitformer_history
        assert cf[-1].train_loss < cf[0].train_loss
        agg = sns.aggregator_curve
        assert agg[-1] < agg[0]

    def test_predict_before_fit_raises(self):
        sns = SNS(circuitformer_config=TINY_CF)
        from repro.designs import get_design
        with pytest.raises(RuntimeError):
            sns.predict(get_design("gpio16").module.elaborate())


class TestPredict:
    def test_prediction_fields(self, fitted_sns):
        sns, _, test = fitted_sns
        pred = sns.predict(test[0].graph)
        assert pred.design == test[0].graph.name
        assert pred.timing_ps > 0
        assert pred.area_um2 > 0
        assert pred.power_mw > 0
        assert pred.runtime_s > 0
        assert pred.num_paths > 0

    def test_accepts_module_directly(self, fitted_sns):
        sns, _, _ = fitted_sns
        from repro.designs import PiecewiseApprox
        pred = sns.predict(PiecewiseApprox(segments=4))
        assert pred.area_um2 > 0

    def test_critical_path_is_max_timing_path(self, fitted_sns):
        sns, _, test = fitted_sns
        graph = test[0].graph
        pred = sns.predict(graph)
        assert pred.critical_path is not None
        # critical path lives in the design
        for nid in pred.critical_path.node_ids:
            assert 0 <= nid < graph.num_nodes

    def test_deterministic_prediction(self, fitted_sns):
        sns, _, test = fitted_sns
        p1 = sns.predict(test[0].graph)
        p2 = sns.predict(test[0].graph)
        assert p1.timing_ps == p2.timing_ps
        assert p1.area_um2 == p2.area_um2

    def test_better_than_wild_guess_on_train_set(self, fitted_sns):
        """The model must at least fit its own training designs (area)."""
        sns, train, _ = fitted_sns
        preds = np.array([sns.predict(r.graph).area_um2 for r in train])
        actual = np.array([r.labels[1] for r in train])
        assert rrse(np.log1p(preds), np.log1p(actual)) < 1.0

    def test_activity_coefficients_reduce_power(self, fitted_sns):
        sns, _, test = fitted_sns
        graph = test[0].graph
        base = sns.predict(graph)
        gated = sns.predict(graph, activity={
            nid: 0.001 for nid in np.flatnonzero(graph.is_sequential).tolist()})
        assert gated.power_mw <= base.power_mw

    def test_derived_properties(self, fitted_sns):
        sns, _, test = fitted_sns
        pred = sns.predict(test[0].graph)
        assert pred.area_mm2 == pytest.approx(pred.area_um2 * 1e-6)
        assert pred.frequency_ghz == pytest.approx(1000.0 / pred.timing_ps)


class TestSpeed:
    def test_sns_faster_than_synthesizer_on_big_design(self, fitted_sns):
        """The Figure 7 shape: SNS inference beats synthesis wall-clock.

        Each side is the best of three calls on the same design, so one
        pause inside a single timed call cannot decide the comparison.
        """
        import time
        sns, _, _ = fitted_sns
        from repro.designs import get_design
        graph = get_design("gemmini16x16").module.elaborate()
        synth = Synthesizer(effort="high")
        synth_times = []
        for _ in range(3):
            t0 = time.perf_counter()
            synth.synthesize(graph)
            synth_times.append(time.perf_counter() - t0)
        predict_time = min(sns.predict(graph).runtime_s for _ in range(3))
        assert predict_time < min(synth_times)


class TestUncertainty:
    def test_spread_reported_per_target(self, fitted_sns):
        sns, _, test = fitted_sns
        pred = sns.predict(test[0].graph)
        assert set(pred.spread) == {"timing", "area", "power"}
        for value in pred.spread.values():
            assert value >= 1.0

    def test_confidence_interval_brackets_prediction(self, fitted_sns):
        sns, _, test = fitted_sns
        pred = sns.predict(test[0].graph)
        lo, hi = pred.confidence_interval("area")
        assert lo <= pred.area_um2 <= hi

    def test_wider_sigma_wider_band(self, fitted_sns):
        sns, _, test = fitted_sns
        pred = sns.predict(test[0].graph)
        lo1, hi1 = pred.confidence_interval("timing", sigmas=1.0)
        lo3, hi3 = pred.confidence_interval("timing", sigmas=3.0)
        assert lo3 <= lo1 and hi3 >= hi1
