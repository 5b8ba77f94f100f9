"""Tests for the content-addressed front-end compile cache."""

import pytest

from repro import obs
from repro.core.sampler import PathSampler
from repro.designs import standard_designs
from repro.graphir import CompiledGraph
from repro.runtime import (BatchPredictor, FrontendCache, compile_design,
                           compile_module, compile_source,
                           fingerprint_frontend_module,
                           fingerprint_frontend_source)
from repro.store import ArtifactStore, open_backend


def dir_cache(root):
    return FrontendCache(ArtifactStore(backend=open_backend(root)))

SRC = """
module mac (input [7:0] a, input [7:0] b, output [15:0] out);
  reg [15:0] acc;
  always @(posedge clk) begin
    acc <= acc + (a * b);
  end
  assign out = acc;
endmodule
"""

SRC_B = SRC.replace("a * b", "a + b")


class TestSourceCache:
    def test_hit_skips_elaboration(self):
        cache = FrontendCache()
        cg1 = compile_source(SRC, cache=cache)
        assert isinstance(cg1, CompiledGraph)
        cg2 = compile_source(SRC, cache=cache)
        assert cg2 is cg1  # object-tier hit, no rebuild
        assert cache.store.counters(("graph",))["object_hits"] == 1

    def test_different_source_misses(self):
        cache = FrontendCache()
        cg1 = compile_source(SRC, cache=cache)
        cg2 = compile_source(SRC_B, cache=cache)
        assert cg1.fingerprint() != cg2.fingerprint()

    def test_disk_tier_survives_new_cache(self, tmp_path):
        cold = dir_cache(tmp_path)
        cg1 = compile_source(SRC, cache=cold)
        warm = dir_cache(tmp_path)
        cg2 = compile_source(SRC, cache=warm)
        assert warm.store.counters(("graph",))["persistent_hits"] == 1
        assert cg2.fingerprint() == cg1.fingerprint()
        assert cg2.labels == cg1.labels

    def test_key_sensitivity(self):
        base = fingerprint_frontend_source(SRC)
        assert fingerprint_frontend_source(SRC + " ") != base
        assert fingerprint_frontend_source(SRC, top="mac") != base
        assert fingerprint_frontend_source(SRC, defines={"X": "1"}) != base

    def test_profiled_hit_and_miss(self):
        """A miss records the lex/parse/elaborate spans; a hit records
        only the graph lookup and one graph hit."""
        cache = FrontendCache()
        with obs.record() as miss:
            cg1 = compile_source(SRC, cache=cache)
        spans = miss.as_dict()["spans"]
        assert list(spans) == ["frontend.graph_lookup", "verilog.lex",
                               "verilog.parse", "verilog.elaborate"]
        assert all(spans[n]["calls"] == 1 for n in spans)
        assert spans["verilog.elaborate"]["seconds"] > 0
        assert miss.counters == {}
        with obs.record() as hit:
            cg2 = compile_source(SRC, cache=cache)
        assert list(hit.as_dict()["spans"]) == ["frontend.graph_lookup"]
        assert hit.counters == {"frontend.graph_hits": 1}
        assert cg2 is cg1


class TestModuleCache:
    def test_module_cached_by_class_and_params(self):
        entry = standard_designs()[0]
        cache = FrontendCache()
        cg1 = compile_module(entry.module, cache=cache)
        cg2 = compile_module(entry.module, cache=cache)
        assert cg2 is cg1

    def test_params_change_the_key(self):
        a, b = standard_designs()[:2]
        assert (fingerprint_frontend_module(a.module)
                != fingerprint_frontend_module(b.module))

    def test_compile_design_dispatch(self):
        entry = standard_designs()[0]
        graph = entry.module.elaborate()
        cache = FrontendCache()
        from_graph = compile_design(graph)
        from_module = compile_design(entry.module, cache)
        assert from_graph.fingerprint() == from_module.fingerprint()
        assert compile_design(from_graph) is from_graph

    def test_class_source_misses_do_not_overlap(self, monkeypatch):
        """``inspect.getsource`` runs ``ast``, whose constructor is not
        safe to enter from two threads at once; misses must serialize."""
        import threading
        import time

        from repro.runtime import frontend

        active = 0
        peak = 0
        guard = threading.Lock()

        def slow_getsource(cls):
            nonlocal active, peak
            with guard:
                active += 1
                peak = max(peak, active)
            time.sleep(0.02)
            with guard:
                active -= 1
            return f"class {cls.__name__}: pass"

        monkeypatch.setattr(frontend.inspect, "getsource", slow_getsource)
        monkeypatch.setattr(frontend, "_MODULE_SOURCE_FP", {})
        classes = [type(f"Fresh{i}", (), {}) for i in range(8)]
        barrier = threading.Barrier(len(classes))

        def fingerprint(cls):
            barrier.wait(timeout=10)
            frontend._class_source_fp(cls)

        threads = [threading.Thread(target=fingerprint, args=(cls,))
                   for cls in classes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert peak == 1
        assert set(frontend._MODULE_SOURCE_FP) == set(classes)


class TestPathReplay:
    def test_replayed_paths_equal_fresh_sample(self, tmp_path):
        entry = standard_designs()[0]
        sampler = PathSampler(k=3, seed=11)
        cache = dir_cache(tmp_path)
        cg = compile_module(entry.module, cache=cache)
        first = cache.sample(cg, sampler)
        fresh = sampler.sample(cg)
        assert [(p.node_ids, p.tokens) for p in first] \
            == [(p.node_ids, p.tokens) for p in fresh]
        # Replay from a cold cache (disk tier): tokens are rebuilt from
        # the compiled graph, node ids from the stored lists.
        warm = dir_cache(tmp_path)
        replayed = warm.get_paths(cg, sampler)
        assert replayed is not None
        assert [(p.node_ids, p.tokens) for p in replayed] \
            == [(p.node_ids, p.tokens) for p in fresh]

    def test_sampler_config_changes_the_key(self):
        entry = standard_designs()[0]
        cache = FrontendCache()
        cg = compile_module(entry.module, cache=cache)
        cache.sample(cg, PathSampler(k=3))
        assert cache.get_paths(cg, PathSampler(k=5)) is None
        assert cache.get_paths(cg, PathSampler(k=3, seed=9)) is None


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def tiny_sns(self):
        from repro.core import SNS, CircuitformerConfig, TrainingConfig
        from repro.datagen import build_design_dataset
        from repro.synth import Synthesizer

        synth = Synthesizer(effort="low")
        entries = [e for e in standard_designs()
                   if e.name in ("gpio16", "piecewise8", "mergesort8")]
        records = build_design_dataset(entries, synth)
        sns = SNS(sampler=PathSampler(k=5, max_paths=30, seed=0),
                  circuitformer_config=CircuitformerConfig(
                      embedding_size=16, dim_feedforward=32, max_input_size=64),
                  training_config=TrainingConfig(circuitformer_epochs=2,
                                                 aggregator_epochs=20))
        sns.fit(records, synthesizer=synth)
        return sns, entries

    def test_batch_with_frontend_cache_is_identical(self, tiny_sns):
        # Module inputs through the compiled front end + FrontendCache
        # must match predictions on plain elaborated graphs.
        sns, entries = tiny_sns
        modules = [e.module for e in entries]
        graphs = [e.module.elaborate() for e in entries]
        fe = FrontendCache()
        cached = BatchPredictor(sns, frontend_cache=fe).predict_batch(modules)
        # Second pass, with a fresh prediction store: everything (graphs
        # + paths) replays from the front-end cache.
        replayed = BatchPredictor(sns, frontend_cache=fe).predict_batch(modules)
        counts = fe.store.counters(("graph", "paths"))
        assert counts["misses"] == counts["object_hits"] == 2 * len(modules)
        plain = BatchPredictor(sns).predict_batch(graphs)
        for a, b, c in zip(cached, replayed, plain):
            assert a.timing_ps == c.timing_ps == b.timing_ps
            assert a.area_um2 == c.area_um2 == b.area_um2
            assert a.power_mw == c.power_mw == b.power_mw
            assert a.num_paths == c.num_paths == b.num_paths
