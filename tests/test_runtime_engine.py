"""Tests for the batched, cached inference runtime (``repro.runtime``).

Covers the two pillars of the engine: batch-composition-invariant
prediction (engine output bit-identical to serial ``SNS.predict``) and
content-addressed caching in the store's ``prediction`` kind (hits on
repeats, automatic invalidation on weight/sampler/activity changes).
"""

import numpy as np
import pytest

from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig
from repro.datagen import build_design_dataset
from repro.designs import standard_designs
from repro.runtime import (
    BatchPredictor,
    fingerprint_graph,
    fingerprint_model,
    fingerprint_sampler,
    resolve_activity_maps,
)
from repro.store import ArtifactStore, open_backend
from repro.synth import Synthesizer

TINY_CF = CircuitformerConfig(embedding_size=16, dim_feedforward=32, max_input_size=64)
DESIGN_NAMES = ("gpio16", "piecewise8", "mergesort8", "sodor32", "icenet64",
                "conv3x3")


@pytest.fixture(scope="module")
def tiny_sns():
    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs() if e.name in DESIGN_NAMES]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=40, seed=0),
              circuitformer_config=TINY_CF,
              training_config=TrainingConfig(circuitformer_epochs=4,
                                             aggregator_epochs=60))
    sns.fit(records, synthesizer=synth)
    return sns, records


@pytest.fixture()
def graphs(tiny_sns):
    _, records = tiny_sns
    return [r.graph for r in records]


class TestPredictPathsDedup:
    def test_duplicates_broadcast(self, tiny_sns):
        """Duplicate sequences in the input map onto one computed row."""
        sns, records = tiny_sns
        paths = sns.sampler.sample(records[0].graph)
        seqs = [p.tokens for p in paths[:4]]
        doubled = seqs + list(reversed(seqs)) + [seqs[0]]
        out = sns.circuitformer.predict_paths(doubled)
        assert out.shape == (len(doubled), 3)
        for i, seq in enumerate(doubled):
            j = doubled.index(seq)
            np.testing.assert_array_equal(out[i], out[j])

    def test_matches_predict_unique(self, tiny_sns):
        sns, records = tiny_sns
        paths = sns.sampler.sample(records[1].graph)
        seqs = [p.tokens for p in paths[:6]]
        via_paths = sns.circuitformer.predict_paths(seqs + seqs)
        via_unique = sns.circuitformer.predict_unique(
            list(dict.fromkeys(seqs)))
        for i, seq in enumerate(seqs):
            k = list(dict.fromkeys(seqs)).index(seq)
            np.testing.assert_array_equal(via_paths[i], via_unique[k])
            np.testing.assert_array_equal(via_paths[len(seqs) + i], via_unique[k])

    def test_composition_invariance(self, tiny_sns, graphs):
        """predict_unique output per sequence is independent of what else
        is in the pool — the property the whole engine stands on."""
        sns, _ = tiny_sns
        pool = []
        for g in graphs[:3]:
            pool.extend(p.tokens for p in sns.sampler.sample(g))
        pool = list(dict.fromkeys(pool))
        full = sns.circuitformer.predict_unique(pool)
        half = sns.circuitformer.predict_unique(pool[: len(pool) // 2])
        np.testing.assert_array_equal(full[: len(pool) // 2], half)


class TestEngineEquivalence:
    def test_bit_identical_to_serial_predict(self, tiny_sns, graphs):
        sns, _ = tiny_sns
        engine = BatchPredictor(sns)
        batched = engine.predict_batch(graphs)
        for graph, b in zip(graphs, batched):
            s = sns.predict(graph)
            assert s.timing_ps == b.timing_ps
            assert s.area_um2 == b.area_um2
            assert s.power_mw == b.power_mw
            assert s.num_paths == b.num_paths
            assert s.critical_path.tokens == b.critical_path.tokens
            assert b.design == graph.name

    def test_identical_designs_collapse(self, tiny_sns, graphs):
        sns, _ = tiny_sns
        engine = BatchPredictor(sns)
        preds = engine.predict_batch([graphs[0]] * 4)
        # four lookups, one compute
        assert engine.store.counters(("prediction",))["misses"] == 4
        assert engine.store.memory_len("prediction") == 1
        assert len({p.timing_ps for p in preds}) == 1

    def test_throwaway_predictor_keeps_nothing(self, tiny_sns, graphs):
        sns, _ = tiny_sns
        for _ in range(2):
            engine = BatchPredictor(sns)
            batch = engine.predict_batch(graphs)
            # Each predictor keys the batch in its own fresh store.
            counts = engine.store.counters(("prediction",))
            assert counts["misses"] == len(graphs)
            assert counts["memory_hits"] == counts["persistent_hits"] == 0
        for graph, p in zip(graphs, batch):
            s = sns.predict(graph)
            assert (s.timing_ps, s.area_um2, s.power_mw) == \
                (p.timing_ps, p.area_um2, p.power_mw)

    def test_empty_batch(self, tiny_sns):
        sns, _ = tiny_sns
        assert BatchPredictor(sns).predict_batch([]) == []

    def test_unfitted_raises(self):
        sns = SNS(circuitformer_config=TINY_CF)
        from repro.designs import get_design
        with pytest.raises(RuntimeError):
            BatchPredictor(sns).predict_batch(
                [get_design("gpio16").module.elaborate()])


class TestCache:
    def test_hit_after_identical_predict(self, tiny_sns, graphs):
        sns, _ = tiny_sns
        engine = BatchPredictor(sns)
        first = engine.predict_batch(graphs)
        stats = engine.store.counters(("prediction",))
        assert stats["misses"] == len(graphs)
        assert stats["memory_hits"] + stats["persistent_hits"] == 0
        second = engine.predict_batch(graphs)
        assert engine.store.counters(("prediction",))["memory_hits"] \
            == len(graphs)
        for a, b in zip(first, second):
            assert a.timing_ps == b.timing_ps
            assert a.area_um2 == b.area_um2
            assert a.power_mw == b.power_mw

    def test_model_fingerprint_memoized_until_weights_change(self, tiny_sns):
        sns, _ = tiny_sns
        first = fingerprint_model(sns)
        assert fingerprint_model(sns) == first  # memoized repeat call
        param = sns.circuitformer.parameters()[0]
        original = param.data
        # Re-assignment bumps the version and forces a re-hash, but
        # identical bytes must reproduce the identical digest.
        param.data = original.copy()
        assert fingerprint_model(sns) == first
        try:
            param.data = original + 1e-6
            assert fingerprint_model(sns) != first
        finally:
            param.data = original
        assert fingerprint_model(sns) == first

    def test_miss_after_weight_mutation(self, tiny_sns, graphs):
        sns, _ = tiny_sns
        store = ArtifactStore()
        BatchPredictor(sns, store=store).predict_batch(graphs[:1])
        before = fingerprint_model(sns)
        param = sns.circuitformer.parameters()[0]
        original = param.data.copy()
        try:
            param.data = original + 1e-6
            assert fingerprint_model(sns) != before
            engine = BatchPredictor(sns, store=store)
            engine.predict_batch(graphs[:1])
            stats = store.counters(("prediction",))
            assert stats["misses"] == 2  # 1 from warmup + 1 now
            assert stats["memory_hits"] + stats["persistent_hits"] == 0
        finally:
            param.data = original
        assert fingerprint_model(sns) == before

    def test_miss_after_sampler_config_change(self, tiny_sns, graphs):
        sns, _ = tiny_sns
        store = ArtifactStore()
        BatchPredictor(sns, store=store).predict_batch(graphs[:1])
        original = sns.sampler
        assert fingerprint_sampler(PathSampler(k=original.k + 1,
                                               max_paths=original.max_paths,
                                               seed=original.seed)) \
            != fingerprint_sampler(original)
        try:
            sns.sampler = PathSampler(k=original.k + 1,
                                      max_paths=original.max_paths,
                                      seed=original.seed)
            engine = BatchPredictor(sns, store=store)
            engine.predict_batch(graphs[:1])
            assert store.counters(("prediction",))["memory_hits"] == 0
        finally:
            sns.sampler = original

    def test_miss_after_activity_change(self, tiny_sns, graphs):
        sns, _ = tiny_sns
        engine = BatchPredictor(sns)
        graph = graphs[0]
        engine.predict_batch([graph])
        activity = {nid: 0.001
                    for nid in np.flatnonzero(graph.is_sequential).tolist()}
        gated = engine.predict_batch([graph], activity_maps=[activity])
        assert engine.store.counters(("prediction",))["misses"] == 2
        assert gated[0].power_mw <= engine.predict_batch([graph])[0].power_mw

    def test_disk_tier_survives_memory_clear(self, tiny_sns, graphs, tmp_path):
        sns, _ = tiny_sns
        store = ArtifactStore(backend=open_backend(tmp_path / "cache"))
        engine = BatchPredictor(sns, store=store)
        first = engine.predict_batch(graphs[:2])
        store.clear(memory_only=True)
        assert store.memory_len("prediction") == 0
        second = engine.predict_batch(graphs[:2])
        assert store.counters(("prediction",))["persistent_hits"] == 2
        assert first[0].timing_ps == second[0].timing_ps

    def test_one_round_trip_each_way(self, tiny_sns, tmp_path):
        """A 41-design batch on a ``.sqlite`` store reads every key with
        one backend ``get_many`` and writes every new entry with one
        ``put_many``.  Warm (fresh process tiers on the same file) it
        makes the one read and has nothing to write.  Both passes equal
        per-design ``SNS.predict``."""
        sns, _ = tiny_sns
        graphs = [e.module.elaborate() for e in standard_designs()]
        serial = [(p.timing_ps, p.area_um2, p.power_mw)
                  for p in map(sns.predict, graphs)]

        def run():
            backend = open_backend(tmp_path / "store.sqlite")
            calls = []
            for name in ("get", "get_many", "put", "put_many"):
                def record(*args, _name=name, _method=getattr(backend, name),
                           **kwargs):
                    calls.append(_name)
                    return _method(*args, **kwargs)
                setattr(backend, name, record)
            store = ArtifactStore(backend=backend)
            preds = BatchPredictor(sns, store=store).predict_batch(graphs)
            backend.close()
            assert [(p.timing_ps, p.area_um2, p.power_mw)
                    for p in preds] == serial
            return calls, store.counters(("prediction",))

        calls, counters = run()
        assert len(graphs) == 41
        assert calls == ["get_many", "put_many"]
        assert counters["misses"] == 41
        calls, counters = run()
        assert calls == ["get_many"]
        assert counters["misses"] == 0
        assert counters["persistent_hits"] + counters["memory_hits"] == 41

    def test_lru_eviction(self, tiny_sns, graphs):
        sns, _ = tiny_sns
        engine = BatchPredictor(sns, store=ArtifactStore(max_entries=2))
        a, b, c = graphs[:3]
        engine.predict_batch([a, b])
        engine.predict_batch([a])    # refresh a; b is now the LRU entry
        engine.predict_batch([c])
        engine.predict_batch([a, c])
        assert engine.store.counters(("prediction",))["memory_hits"] == 3
        engine.predict_batch([b])    # evicted: computed again
        assert engine.store.counters(("prediction",))["misses"] == 4

    def test_graph_fingerprint_ignores_name(self, graphs):
        import copy
        g = copy.deepcopy(graphs[0])
        g.name = "renamed"
        assert fingerprint_graph(g) == fingerprint_graph(graphs[0])


class TestActivityResolution:
    def test_dict_matched_by_name(self, graphs):
        amap = {graphs[1].name: {7: 0.5}}
        resolved = resolve_activity_maps(graphs[:3], amap)
        assert resolved == [None, {7: 0.5}, None]

    def test_unmatched_key_warns(self, graphs):
        with pytest.warns(UserWarning, match="no_such_design"):
            resolve_activity_maps(graphs[:2], {"no_such_design": {1: 0.1}})

    def test_aligned_sequence(self, graphs):
        resolved = resolve_activity_maps(graphs[:2], [None, {3: 0.2}])
        assert resolved == [None, {3: 0.2}]

    def test_length_mismatch_raises(self, graphs):
        with pytest.raises(ValueError):
            resolve_activity_maps(graphs[:3], [{1: 0.1}])

    def test_sequence_all_none_dict_warns_and_normalizes(self, graphs):
        # A name-keyed mapping of all-None values slipped into the
        # sequence slot: misaligned with the design at its position.
        stray = {graphs[1].name: None}
        with pytest.warns(UserWarning, match="sequence form"):
            resolved = resolve_activity_maps(graphs[:2], [stray, None])
        assert resolved == [None, None]

    def test_sequence_all_none_dict_matching_name_is_silent(self, graphs):
        import warnings as _warnings

        entry = {graphs[0].name: None}
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            resolved = resolve_activity_maps(graphs[:2], [entry, None])
        assert resolved == [None, None]

    def test_sequence_real_activity_dict_untouched(self, graphs):
        # Entries with actual activity values must pass through verbatim.
        entry = {3: 0.2, 7: None}
        resolved = resolve_activity_maps(graphs[:2], [entry, None])
        assert resolved == [entry, None]
