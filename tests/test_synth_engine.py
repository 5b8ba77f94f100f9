"""Parity tests for the compiled synthesis kernels.

Every test here asserts *exact* float equality between ``repro.synth``
(the compiled STA, incremental gate sizing and batched path labeling)
and the per-cell reference synthesizer in ``tests/oracles/synth.py`` —
the contract is bit-identical labels, not approximately-equal ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.datagen import build_design_dataset, sample_path_dataset
from repro.designs import standard_designs
from repro.graphir import CompiledGraph, GraphBuilder, Vocabulary
from repro.runtime.parallel import _synthesize_one_entry
from repro.store import ArtifactStore, open_backend
from repro.synth import (FREEPDK15, MappedNetlist, SynthesisResult, Synthesizer,
                         analyze, retime_backward, static_timing_analysis,
                         synthesis_cache_key, synthesize_path_batch)
from tests.oracles.synth import (ReferenceSynthesizer, reference_sta,
                                 reference_timing)

COMB_TYPES = ("mux", "not", "and", "or", "xor", "sh", "add", "mul", "eq",
              "lgt", "div", "mod", "reduce_and", "reduce_or", "reduce_xor")
WIDTHS = (4, 8, 16, 32, 64)


def random_netlist(rng: np.random.Generator, num_cells: int = 40,
                   seq_fraction: float = 0.3) -> MappedNetlist:
    """A random legal netlist: forward-only edges, fan-in >= 2 where the
    topology allows, a mix of sequential and combinational cells."""
    net = MappedNetlist(name="random")
    for i in range(num_cells):
        if i < 2 or rng.random() < seq_fraction:
            kind = "dff" if rng.random() < 0.7 else "io"
            net.add_cell(kind, int(rng.choice(WIDTHS)), is_sequential=True)
        else:
            net.add_cell(str(rng.choice(COMB_TYPES)), int(rng.choice(WIDTHS)))
    for cid, cell in net.cells.items():
        if cid == 0:
            continue
        fanin = 1 if cell.is_sequential else min(cid, int(rng.integers(2, 5)))
        for src in rng.choice(cid, size=fanin, replace=False):
            net.add_edge(int(src), cid)
    return net


def assert_reports_equal(ref, arr):
    assert arr.critical_path_ps == ref.critical_path_ps
    assert arr.critical_cells == ref.critical_cells
    assert arr.arrival == ref.arrival


def assert_results_equal(ref, arr):
    assert arr.design == ref.design
    assert arr.timing_ps == ref.timing_ps
    assert arr.area_um2 == ref.area_um2
    assert arr.power_mw == ref.power_mw
    assert arr.num_cells == ref.num_cells
    assert arr.gate_count == ref.gate_count


# ---------------------------------------------------------------------- #
# STA parity
# ---------------------------------------------------------------------- #
def test_array_sta_matches_reference_on_random_netlists():
    rng = np.random.default_rng(7)
    for trial in range(25):
        net = random_netlist(rng, num_cells=int(rng.integers(5, 80)),
                             seq_fraction=float(rng.uniform(0.1, 0.6)))
        assert_reports_equal(reference_sta(net, FREEPDK15),
                             static_timing_analysis(net, FREEPDK15))


def test_array_sta_matches_after_gate_sizing_scales():
    # Non-unit delay/area scales exercise the delay_scale vector path.
    rng = np.random.default_rng(11)
    for _ in range(10):
        net = random_netlist(rng)
        for cell in net.cells.values():
            cell.delay_scale = float(rng.uniform(0.7, 1.2))
        assert_reports_equal(reference_sta(net, FREEPDK15),
                             static_timing_analysis(net, FREEPDK15))


def test_array_sta_all_register_netlist():
    # Degenerate case: no combinational cell, endpoint falls back to the
    # max arrival across registers.
    net = MappedNetlist(name="regs")
    for _ in range(6):
        net.add_cell("dff", 16, is_sequential=True)
    for i in range(1, 6):
        net.add_edge(i - 1, i)
    assert_reports_equal(reference_sta(net, FREEPDK15),
                         static_timing_analysis(net, FREEPDK15))


def test_array_sta_single_cell():
    net = MappedNetlist(name="one")
    net.add_cell("add", 8)
    assert_reports_equal(reference_sta(net, FREEPDK15),
                         static_timing_analysis(net, FREEPDK15))


def test_array_sta_rejects_combinational_loop():
    net = MappedNetlist(name="loop")
    a = net.add_cell("add", 8)
    b = net.add_cell("xor", 8)
    net.add_edge(a, b)
    net.add_edge(b, a)
    with pytest.raises(ValueError, match="combinational loop"):
        reference_sta(net, FREEPDK15)
    with pytest.raises(ValueError, match="combinational loop"):
        static_timing_analysis(net, FREEPDK15)


# ---------------------------------------------------------------------- #
# Full-synthesizer parity (incremental sizing + lazy fusion STA)
# ---------------------------------------------------------------------- #
def random_graph(rng: np.random.Generator, num_nodes: int = 30) -> CompiledGraph:
    graph = GraphBuilder("random")
    for i in range(num_nodes):
        if i < 2 or rng.random() < 0.25:
            graph.add_node("dff" if rng.random() < 0.7 else "io",
                           int(rng.choice(WIDTHS)))
        else:
            graph.add_node(str(rng.choice(COMB_TYPES)), int(rng.choice(WIDTHS)))
    for nid in range(1, num_nodes):
        for src in rng.choice(nid, size=min(nid, int(rng.integers(1, 4))),
                              replace=False):
            graph.add_edge(int(src), nid)
    return graph.compile()


@pytest.mark.parametrize("effort", ["low", "medium", "high"])
def test_synthesizer_engines_bit_identical_on_random_graphs(effort):
    rng = np.random.default_rng(23)
    for _ in range(6):
        graph = random_graph(rng, num_nodes=int(rng.integers(10, 60)))
        ref = ReferenceSynthesizer(effort=effort).synthesize(graph)
        arr = Synthesizer(effort=effort).synthesize(graph)
        assert_results_equal(ref, arr)


def test_synthesizer_engines_bit_identical_on_registry_designs():
    small = [e for e in standard_designs()
             if e.module.elaborate().num_nodes < 500][:8]
    for entry in small:
        graph = entry.module.elaborate()
        ref = ReferenceSynthesizer(effort="medium").synthesize(graph)
        arr = Synthesizer(effort="medium").synthesize(graph)
        assert_results_equal(ref, arr)


def test_report_and_retiming_match_reference_sta_on_registry_designs():
    # analyze (fusion guard + worst paths) and retime_backward (one STA
    # per tried move) print and move the same under the oracle STA.
    for entry in standard_designs():
        graph = entry.module.elaborate()
        got = analyze(graph, num_paths=5).format()
        net = MappedNetlist.from_graphir(graph)
        moves = retime_backward(net, FREEPDK15)
        with reference_timing():
            want = analyze(graph, num_paths=5).format()
            ref_net = MappedNetlist.from_graphir(graph)
            ref_moves = retime_backward(ref_net, FREEPDK15)
        assert got == want, entry.name
        assert moves == ref_moves, entry.name
        assert_reports_equal(reference_sta(ref_net, FREEPDK15),
                             static_timing_analysis(net, FREEPDK15))


# ---------------------------------------------------------------------- #
# Batched path labeling
# ---------------------------------------------------------------------- #
def test_path_batch_matches_per_path_for_every_single_token():
    oracle = ReferenceSynthesizer()
    tokens = list(Vocabulary.standard().tokens)
    batch = Synthesizer().synthesize_path_batch([[t] for t in tokens])
    for token, got in zip(tokens, batch):
        want = oracle.synthesize_path([token])
        assert got == want


def test_path_batch_matches_per_path_on_random_chains():
    oracle = ReferenceSynthesizer()
    tokens = list(Vocabulary.standard().tokens)
    rng = np.random.default_rng(3)
    chains = [[tokens[i] for i in rng.integers(0, len(tokens),
                                               int(rng.integers(1, 13)))]
              for _ in range(120)]
    batch = Synthesizer().synthesize_path_batch(chains)
    for chain, got in zip(chains, batch):
        assert got == oracle.synthesize_path(list(chain))


def test_path_batch_mac_fusion_order_sensitivity():
    # The paper's own example: [mul, add] fuses, [add, mul] does not.
    oracle = ReferenceSynthesizer()
    fwd, rev = Synthesizer().synthesize_path_batch(
        [["io16", "mul16", "add16", "io16"], ["io16", "add16", "mul16", "io16"]])
    assert fwd == oracle.synthesize_path(["io16", "mul16", "add16", "io16"])
    assert rev == oracle.synthesize_path(["io16", "add16", "mul16", "io16"])
    assert fwd.area_um2 < rev.area_um2


def test_path_batch_validation():
    with pytest.raises(ValueError, match="at least one token"):
        synthesize_path_batch([[]], FREEPDK15)
    with pytest.raises(KeyError, match="not in vocabulary"):
        synthesize_path_batch([["add8", "warp9"]], FREEPDK15)
    assert synthesize_path_batch([], FREEPDK15) == []


def test_sample_path_dataset_uses_batch_identically():
    from repro.core.sampler import PathSampler

    entries = [e for e in standard_designs()
               if e.module.elaborate().num_nodes < 300][:4]
    records = build_design_dataset(entries, Synthesizer(effort="low"))
    sampler = PathSampler(max_paths=10)
    ref = sample_path_dataset(records, sampler,
                              ReferenceSynthesizer(effort="low"))
    arr = sample_path_dataset(records, sampler, Synthesizer(effort="low"))
    assert arr == ref


# ---------------------------------------------------------------------- #
# Synthesis cache + parallel dataset builder
# ---------------------------------------------------------------------- #
def small_entries(limit=5):
    return [e for e in standard_designs()
            if e.module.elaborate().num_nodes < 300][:limit]


def test_synthesis_cache_round_trip(tmp_path):
    """Labels round-trip through the store's ``synth`` kind: a miss
    synthesizes and writes, a repeat replays, and a fresh store on the
    same directory decodes the payload back into the same result."""
    entries = small_entries(3)
    synth = Synthesizer(effort="low")
    cache_dir = tmp_path / "synth"
    for entry in entries:
        result = synth.synthesize(entry.module.elaborate())
        for expect_hit in (False, True):
            record, _, hit = _synthesize_one_entry(
                (entry, synth, None, cache_dir))
            assert hit is expect_hit
            assert (record.timing_ps, record.area_um2, record.power_mw) == \
                (result.timing_ps, result.area_um2, result.power_mw)
    # A fresh store on the same directory serves persistent hits.
    fresh = ArtifactStore(backend=open_backend(cache_dir))
    graph = entries[0].module.elaborate()
    payload = fresh.get("synth", synthesis_cache_key(graph, synth.library,
                                                     synth.effort))
    assert_results_equal(synth.synthesize(graph), SynthesisResult(**payload))
    assert fresh.counters(("synth",))["persistent_hits"] == 1


def test_synthesis_cache_key_sensitivity():
    graph = small_entries(1)[0].module.elaborate()
    base = synthesis_cache_key(graph, FREEPDK15, "medium")
    assert synthesis_cache_key(graph, FREEPDK15, "high") != base
    assert synthesis_cache_key(graph, FREEPDK15, "medium",
                               activity={0: 0.5}) != base
    assert synthesis_cache_key(graph, FREEPDK15, "medium") == base


def test_build_design_dataset_workers_and_cache_bit_identical(tmp_path):
    entries = small_entries(5)
    ref = build_design_dataset(entries, ReferenceSynthesizer(effort="low"))
    cold = build_design_dataset(entries, Synthesizer(effort="low"),
                                num_workers=1, cache_dir=tmp_path / "c")
    warm = build_design_dataset(entries, Synthesizer(effort="low"),
                                num_workers=2, cache_dir=tmp_path / "c")
    pool = build_design_dataset(entries, Synthesizer(effort="low"),
                                num_workers=2)
    for records in (cold, warm, pool):
        assert len(records) == len(ref)
        for got, want in zip(records, ref):
            assert got.name == want.name and got.family == want.family
            assert got.timing_ps == want.timing_ps
            assert got.area_um2 == want.area_um2
            assert got.power_mw == want.power_mw


def test_build_design_dataset_profile(tmp_path):
    entries = small_entries(4)
    with obs.record() as cold:
        records = build_design_dataset(
            entries, Synthesizer(effort="low"), cache_dir=tmp_path / "c")
    with obs.record() as warm:
        build_design_dataset(
            entries, Synthesizer(effort="low"), cache_dir=tmp_path / "c")
    assert len(records) == len(entries)
    assert cold.counters == {"datagen.workers": 1,
                             "datagen.synth_cache.hits": 0,
                             "datagen.synth_cache.misses": len(entries)}
    assert warm.counters["datagen.synth_cache.hits"] == len(entries)
    assert warm.counters["datagen.synth_cache.misses"] == 0
    build = cold.as_dict()["spans"]["datagen.build"]
    assert build["calls"] == 1 and build["seconds"] > 0
    assert set(build["children"]) == {f"datagen.design.{r.name}"
                                      for r in records}
    assert "datagen.synth_cache.hits" in warm.format()


def test_build_design_dataset_profile_respects_max_nodes():
    entries = small_entries(4)
    with obs.record() as recorder:
        records = build_design_dataset(
            entries, Synthesizer(effort="low"), max_nodes=1)
    assert records == []
    assert recorder.counters == {"datagen.workers": 1}
    assert recorder.as_dict()["spans"]["datagen.build"]["children"] == {}
