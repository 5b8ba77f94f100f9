"""Tests for GraphIR JSON serialization and nn schedulers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import SodorCore
from repro.graphir import GraphBuilder, from_json, load_graph, save_graph, to_json
from repro.nn import (
    Adam,
    CosineAnnealingLR,
    EarlyStopping,
    Parameter,
    StepLR,
    WarmupLR,
)


class TestGraphJSON:
    def _mac(self):
        g = GraphBuilder("mac8")
        a = g.add_node("io", 8, "a")
        m = g.add_node("mul", 16, "m")
        d = g.add_node("dff", 16, "acc")
        g.add_edge(a, m)
        g.add_edge(m, d)
        g.add_edge(d, m)
        return g.compile()

    def test_roundtrip_preserves_everything(self):
        g = self._mac()
        g2 = from_json(to_json(g))
        assert g2.name == g.name
        assert g2.token_counts() == g.token_counts()
        assert sorted(g2.edges()) == sorted(g.edges())
        assert g2.labels == g.labels

    def test_node_ids_preserved(self):
        g = self._mac()
        g2 = from_json(to_json(g))
        assert g2.type_names == g.type_names

    def test_real_design_roundtrip(self):
        g = SodorCore(xlen=32).elaborate()
        g2 = from_json(to_json(g))
        assert g2.token_counts() == g.token_counts()
        assert g2.num_edges == g.num_edges

    def test_file_roundtrip(self, tmp_path):
        g = self._mac()
        path = tmp_path / "mac.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.token_counts() == g.token_counts()

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="format"):
            from_json(json.dumps({"format": "yosys", "version": 1}))

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            from_json(json.dumps({"format": "repro-graphir", "version": 99}))

    def test_json_is_valid_and_stable(self):
        g = self._mac()
        doc = json.loads(to_json(g))
        assert doc["format"] == "repro-graphir"
        assert to_json(g) == to_json(from_json(to_json(g)))


def _opt():
    return Adam([Parameter(np.zeros(2))], lr=1.0)


class TestSchedulers:
    def test_step_lr_decays(self):
        opt = _opt()
        sched = StepLR(opt, step_size=2, gamma=0.5)
        lrs = [sched.step() for _ in range(6)]
        assert lrs == [1.0, 0.5, 0.5, 0.25, 0.25, 0.125]
        assert opt.lr == 0.125

    def test_cosine_endpoints(self):
        opt = _opt()
        sched = CosineAnnealingLR(opt, t_max=10, min_lr=0.1)
        first = sched.get_lr(0)
        last = sched.get_lr(10)
        assert first == pytest.approx(1.0)
        assert last == pytest.approx(0.1)

    def test_cosine_monotone_decreasing(self):
        sched = CosineAnnealingLR(_opt(), t_max=20)
        lrs = [sched.get_lr(e) for e in range(21)]
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))

    def test_cosine_clamps_past_t_max(self):
        sched = CosineAnnealingLR(_opt(), t_max=5, min_lr=0.2)
        assert sched.get_lr(50) == pytest.approx(0.2)

    def test_warmup_ramps_then_delegates(self):
        opt = _opt()
        after = StepLR(opt, step_size=100)  # constant until epoch 100
        sched = WarmupLR(opt, warmup_epochs=4, after=after)
        lrs = [sched.step() for _ in range(6)]
        np.testing.assert_allclose(lrs[:4], [0.25, 0.5, 0.75, 1.0])
        assert lrs[4] == pytest.approx(1.0)

    def test_warmup_without_after_holds_base(self):
        sched = WarmupLR(_opt(), warmup_epochs=2)
        assert sched.get_lr(10) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StepLR(_opt(), step_size=0)
        with pytest.raises(ValueError):
            CosineAnnealingLR(_opt(), t_max=0)
        with pytest.raises(ValueError):
            WarmupLR(_opt(), warmup_epochs=0)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=3)
        values = [1.0, 0.9, 0.95, 0.95, 0.95]
        stops = [stopper.update(v) for v in values]
        assert stops == [False, False, False, False, True]
        assert stopper.best == 0.9
        assert stopper.best_epoch == 1

    def test_improvement_resets(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1.0)
        assert not stopper.update(1.1)
        assert not stopper.update(0.5)   # improvement resets the counter
        assert not stopper.update(0.6)
        assert stopper.update(0.6)

    def test_min_delta(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        assert not stopper.update(1.0)
        assert stopper.update(0.95)  # < min_delta improvement doesn't count

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=30),
           st.integers(1, 5))
    def test_property_best_is_min(self, values, patience):
        stopper = EarlyStopping(patience=patience)
        for v in values:
            if stopper.update(v):
                break
        seen = values[:stopper._epoch + 1]
        assert stopper.best == min(seen)
