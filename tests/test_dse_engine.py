"""Tests for the streaming budgeted DSE engine and the lazy grid.

Covers the three guarantees the engine advertises: combinatorial
indexing (no product materialization), exhaustive-mode parity with a
loop that synthesizes every grid point (``tests/oracles/dse.py``), and
determinism — the same seed yields the same evaluated set and front
across repeated runs *and* across chunk sizes.
"""

import itertools
import weakref

import numpy as np
import pytest

from repro import obs
from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig
from repro.datagen import build_design_dataset
from repro.designs import SIMDALU, standard_designs
from repro.dse import (EngineConfig, EngineResult, ExplorationEngine,
                       ParameterGrid, pareto_points)
from repro.synth import Synthesizer
from tests.oracles.dse import synthesize_grid

TINY_CF = CircuitformerConfig(embedding_size=16, dim_feedforward=32,
                              max_input_size=64)


@pytest.fixture(scope="module")
def tiny_sns():
    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs() if e.name in ("gpio16", "conv3x3")]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=40, seed=0),
              circuitformer_config=TINY_CF,
              training_config=TrainingConfig(circuitformer_epochs=1,
                                             aggregator_epochs=10),
              num_aggregators=1)
    sns.fit(records, synthesizer=synth)
    return sns


def _param_keys(points):
    return sorted(tuple(sorted(p.params.items())) for p in points)


def _metrics(points):
    return sorted((tuple(sorted(p.params.items())), p.timing_ps, p.area_um2,
                   p.power_mw, p.score) for p in points)


# ---------------------------------------------------------------------- #
class TestGridIndexing:
    GRID = ParameterGrid({"a": (1, 2, 3), "b": ("x", "y"), "c": (10, 20)})

    def test_point_at_matches_iteration_order(self):
        for i, point in enumerate(self.GRID):
            assert self.GRID.point_at(i) == point

    def test_index_of_roundtrip(self):
        for i in range(len(self.GRID)):
            assert self.GRID.index_of(self.GRID.point_at(i)) == i

    def test_point_at_out_of_range(self):
        with pytest.raises(IndexError):
            self.GRID.point_at(len(self.GRID))
        with pytest.raises(IndexError):
            self.GRID.point_at(-1)

    def test_index_of_off_grid_value(self):
        with pytest.raises(ValueError):
            self.GRID.index_of({"a": 7, "b": "x", "c": 10})

    def test_decode_indices_matches_point_at(self):
        indices = list(range(len(self.GRID)))
        digits = self.GRID.decode_indices(indices)
        assert digits.shape == (len(self.GRID), 3)
        for i, row in zip(indices, digits):
            point = self.GRID.point_at(i)
            rebuilt = {n: self.GRID.parameters[n][d]
                       for n, d in zip(self.GRID.names, row)}
            assert rebuilt == point

    def test_decode_indices_out_of_range(self):
        with pytest.raises(IndexError):
            self.GRID.decode_indices([0, len(self.GRID)])

    def test_points_at_matches_point_at(self):
        assert self.GRID.points_at([5, 0, 11]) == [
            self.GRID.point_at(5), self.GRID.point_at(0),
            self.GRID.point_at(11)]

    def test_radices_and_names(self):
        assert self.GRID.names == ("a", "b", "c")
        assert self.GRID.radices == (3, 2, 2)


class TestLazySubsetAndSample:
    def test_iteration_is_lazy(self):
        # ~1.1M points: materializing would be obvious; islice is instant.
        grid = ParameterGrid({c: tuple(range(64)) for c in "abc"})
        first = list(itertools.islice(grid, 3))
        assert first[0] == {"a": 0, "b": 0, "c": 0}
        assert first[2] == {"a": 0, "b": 0, "c": 2}

    def test_sample_deterministic_and_distinct(self):
        grid = ParameterGrid({"a": tuple(range(6)), "b": tuple(range(7))})
        s1 = grid.sample(10, seed=3)
        s2 = grid.sample(10, seed=3)
        assert s1 == s2
        keys = {tuple(sorted(p.items())) for p in s1}
        assert len(keys) == 10
        assert grid.sample(10, seed=4) != s1

    def test_sample_covers_grid_when_n_exceeds_total(self):
        grid = ParameterGrid({"a": (1, 2), "b": (3, 4)})
        assert grid.sample_indices(99) == [0, 1, 2, 3]

    def test_sample_negative_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({"a": (1,)}).sample_indices(-1)

    def test_sample_huge_grid_is_cheap(self):
        # 10^12-scale product: index-space sampling must not enumerate.
        grid = ParameterGrid({c: tuple(range(100)) for c in "abcdef"})
        assert len(grid) == 10**12
        idx = grid.sample_indices(100, seed=0)
        assert len(set(idx)) == 100
        assert all(0 <= i < len(grid) for i in idx)
        points = grid.points_at(idx[:5])
        assert all(set(p) == set("abcdef") for p in points)


# ---------------------------------------------------------------------- #
class TestEngineParity:
    """Exhaustive mode reproduces synthesizing every grid point exactly."""

    GRID = ParameterGrid({"lanes": (1, 2, 4), "width": (16, 32)})

    @pytest.fixture(scope="class")
    def pair(self):
        synth = Synthesizer(effort="low")
        engine = ExplorationEngine(SIMDALU, synth, self.GRID,
                                   config=EngineConfig(budget=100, block=4,
                                                       chunk=2, seed=0))
        eresult = engine.explore()
        oracle = synthesize_grid(SIMDALU, Synthesizer(effort="low"), self.GRID)
        return eresult, oracle

    def test_same_evaluated_set_and_metrics(self, pair):
        eresult, oracle = pair
        assert _metrics(eresult.points) == _metrics(oracle)

    def test_pareto_matches_oracle(self, pair):
        eresult, oracle = pair
        assert _param_keys(eresult.pareto()) \
            == _param_keys(pareto_points(oracle))

    def test_front_is_brute_force_front(self, pair):
        from repro.dse import brute_force_front

        eresult, _ = pair
        objs = np.array([[p.timing_ps, p.area_um2, p.power_mw, -p.score]
                         for p in eresult.points])
        expected = {tuple(row) for row in objs[brute_force_front(objs)]}
        got = {(p.timing_ps, p.area_um2, p.power_mw, -p.score)
               for p in eresult.front}
        assert got == expected

    def test_profile_counts(self, pair):
        eresult, _ = pair
        assert eresult.candidates == len(self.GRID)
        assert len(eresult.points) == len(self.GRID)
        assert eresult.runtime_s > 0

    def test_hypervolume_positive(self, pair):
        eresult, _ = pair
        assert eresult.hypervolume() >= 0.0
        # A shared, strictly-worse reference gives a positive volume.
        ref = [max(p.timing_ps for p in eresult.points) * 2,
               max(p.area_um2 for p in eresult.points) * 2,
               max(p.power_mw for p in eresult.points) * 2,
               min(p.score for p in eresult.points) / 2]
        assert eresult.hypervolume(reference=ref) > 0.0


class TestEngineDeterminism:
    """Same seed => same survivors, across runs AND chunk sizes."""

    GRID = ParameterGrid({"lanes": (1, 2, 3, 4, 6, 8),
                          "width": (8, 16, 24, 32, 48, 64)})

    def _run(self, chunk, seed=7):
        engine = ExplorationEngine(
            SIMDALU, Synthesizer(effort="low"), self.GRID,
            config=EngineConfig(budget=30, predict_budget=16, block=10,
                                chunk=chunk, seed=seed, refit_every=4,
                                min_fit=4))
        return engine.explore()

    def test_repeat_runs_identical(self):
        r1, r2 = self._run(chunk=5), self._run(chunk=5)
        assert _metrics(r1.points) == _metrics(r2.points)
        assert _param_keys(r1.front) == _param_keys(r2.front)

    def test_chunk_size_invariant(self):
        r1, r2, r3 = self._run(chunk=1), self._run(chunk=7), self._run(chunk=64)
        assert _metrics(r1.points) == _metrics(r2.points) == _metrics(r3.points)
        assert _param_keys(r1.front) == _param_keys(r2.front) \
            == _param_keys(r3.front)

    def test_seed_changes_the_sample(self):
        r1, r2 = self._run(chunk=5, seed=7), self._run(chunk=5, seed=8)
        assert _param_keys(r1.points) != _param_keys(r2.points)

    def test_budget_respected(self):
        r = self._run(chunk=5)
        # The seeded stream is budget-sized; guided local search may
        # consider a few extra neighbors beyond it.
        assert r.candidates >= 30
        assert len(r.points) == 16

    def test_guided_proposals_stay_on_grid(self):
        r = self._run(chunk=5)
        valid = {tuple(sorted(p.items())) for p in self.GRID}
        assert set(_param_keys(r.points)) <= valid


class TestEngineRungsAndErrors:
    GRID = ParameterGrid({"lanes": (1, 2, 4), "width": (16, 32)})

    def test_synth_finalists(self):
        engine = ExplorationEngine(
            SIMDALU, Synthesizer(effort="low"), self.GRID,
            config=EngineConfig(budget=6, synth_budget=2, block=6, chunk=3))
        with obs.record() as recorder:
            r = engine.explore()
        assert 1 <= len(r.finalists) <= 2
        explore = recorder.as_dict()["spans"]["dse.explore"]
        assert explore["children"]["dse.synth"]["calls"] == 1
        front_keys = set(_param_keys(r.front))
        assert set(_param_keys(r.finalists)) <= front_keys

    def test_explore_overrides(self):
        engine = ExplorationEngine(SIMDALU, Synthesizer(effort="low"),
                                   self.GRID)
        r = engine.explore(budget=3, block=3)
        assert len(r.points) == 3

    def test_engine_type_checked(self):
        with pytest.raises(TypeError):
            ExplorationEngine(SIMDALU, object(), self.GRID)

    def test_empty_result_errors(self):
        empty = EngineResult(points=(), front=(), objectives=("timing_ps",
                                                              "score"),
                             finalists=(), candidates=0, runtime_s=0.0)
        with pytest.raises(ValueError, match="no evaluated points"):
            empty.best()
        with pytest.raises(ValueError, match="no evaluated points"):
            empty.pareto()

    @pytest.mark.parametrize("kwargs", [
        {"budget": 0},
        {"predict_budget": 0},
        {"chunk": 0},
        {"block": 0},
        {"warmup_fraction": 1.5},
        {"warmup_fraction": -0.1},
        {"climb_patience": -1},
        {"objectives": ("timing_ps",)},
        {"objectives": ("timing_ps", "bogus")},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)


# ---------------------------------------------------------------------- #
def live_module_probe():
    """A SIMDALU factory that tracks its live modules.

    Returns ``(factory, live, peak)``: ``live`` is a weak set of the
    modules still alive and ``peak()`` the most that were alive at once.
    """
    live = weakref.WeakSet()
    most = [0]

    def factory(**params):
        module = SIMDALU(**params)
        live.add(module)
        most[0] = max(most[0], len(live))
        return module

    return factory, live, lambda: most[0]


class TestChunkedExplorerStreaming:
    """The exhaustive sweep streams factory->predict in chunks, with
    identical results and bounded live modules."""

    GRID = ParameterGrid({"lanes": (1, 2, 3, 4), "width": (8, 16, 32)})

    def test_chunked_matches_all_at_once(self, tiny_sns):
        # Two engines, so the second sweep cannot reuse the first's
        # cached predictions.
        r_big = ExplorationEngine(SIMDALU, tiny_sns, self.GRID).explore(
            chunk=len(self.GRID))
        r_small = ExplorationEngine(SIMDALU, tiny_sns, self.GRID).explore(
            chunk=2)
        assert [p.params for p in r_big.points] == list(self.GRID)
        assert _metrics(r_big.points) == _metrics(r_small.points)

    def test_peak_live_modules_bounded_by_chunk(self, tiny_sns):
        """Measured: modules are dropped one by one, whatever the chunk."""
        factory, live, peak = live_module_probe()
        engine = ExplorationEngine(factory, tiny_sns, self.GRID)
        for chunk in (3, 5):
            engine.explore(chunk=chunk)
            assert peak() == 1
            assert len(live) == 0

    def test_invalid_chunk_size(self, tiny_sns):
        engine = ExplorationEngine(SIMDALU, tiny_sns, self.GRID)
        with pytest.raises(ValueError):
            engine.explore(chunk=0)

    def test_engine_with_sns_chunk_invariant(self, tiny_sns):
        factory, live, peak = live_module_probe()

        def run(chunk):
            engine = ExplorationEngine(
                factory, tiny_sns, self.GRID,
                config=EngineConfig(budget=10, predict_budget=6, block=5,
                                    chunk=chunk, seed=1, refit_every=3,
                                    min_fit=3))
            return engine.explore()

        r1, r2 = run(2), run(12)
        assert _metrics(r1.points) == _metrics(r2.points)
        assert peak() == 1
        assert len(live) == 0
