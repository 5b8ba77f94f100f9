"""Property-based tests for reference-synthesizer invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphir import CompiledGraph, GraphBuilder
from repro.synth import (
    FREEPDK15,
    MappedNetlist,
    Synthesizer,
    common_subexpression_elimination,
    mac_fusion,
    static_timing_analysis,
    total_area,
)

COMB_TYPES = ["add", "mul", "xor", "and", "or", "mux", "sh", "eq"]


def random_pipeline_graph(rng: np.random.Generator, n_layers: int,
                          layer_width: int) -> CompiledGraph:
    """A layered DAG: io sources -> comb layers -> dff sinks."""
    g = GraphBuilder("random")
    prev = [g.add_node("io", int(rng.choice([8, 16, 32]))) for _ in range(layer_width)]
    for _ in range(n_layers):
        layer = []
        for _ in range(layer_width):
            t = COMB_TYPES[rng.integers(len(COMB_TYPES))]
            node = g.add_node(t, int(rng.choice([8, 16, 32])))
            # connect to 1-2 random nodes in the previous layer
            for src in rng.choice(prev, size=min(2, len(prev)), replace=False):
                g.add_edge(int(src), node)
            layer.append(node)
        prev = layer
    for node in prev:
        sink = g.add_node("dff", 16)
        g.add_edge(node, sink)
    return g.compile()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_property_synthesis_always_terminates_positive(seed, layers, width):
    g = random_pipeline_graph(np.random.default_rng(seed), layers, width)
    result = Synthesizer(effort="low").synthesize(g)
    assert result.timing_ps > 0
    assert result.area_um2 > 0
    assert result.power_mw > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_property_cse_never_increases_area(seed):
    g = random_pipeline_graph(np.random.default_rng(seed), 3, 3)
    before = MappedNetlist.from_graphir(g)
    after = MappedNetlist.from_graphir(g)
    common_subexpression_elimination(after)
    assert total_area(after, FREEPDK15) <= total_area(before, FREEPDK15) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_property_timing_aware_mac_fusion_never_increases_cost(seed):
    g = random_pipeline_graph(np.random.default_rng(seed), 3, 3)
    before = MappedNetlist.from_graphir(g)
    after = MappedNetlist.from_graphir(g)
    mac_fusion(after, library=FREEPDK15)
    assert total_area(after, FREEPDK15) <= total_area(before, FREEPDK15) + 1e-9
    t_before = static_timing_analysis(before, FREEPDK15).critical_path_ps
    t_after = static_timing_analysis(after, FREEPDK15).critical_path_ps
    assert t_after <= t_before + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_property_unconditional_fusion_never_increases_area(seed):
    """Without a library the pass still never grows area (MAC < mul+add)."""
    g = random_pipeline_graph(np.random.default_rng(seed), 3, 3)
    before = MappedNetlist.from_graphir(g)
    after = MappedNetlist.from_graphir(g)
    mac_fusion(after)
    assert total_area(after, FREEPDK15) <= total_area(before, FREEPDK15) + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_property_sta_monotone_under_edges(seed):
    """Adding a combinational dependency never shortens the critical path."""
    rng = np.random.default_rng(seed)
    g = random_pipeline_graph(rng, 3, 3)
    net = MappedNetlist.from_graphir(g)
    base = static_timing_analysis(net, FREEPDK15).critical_path_ps

    # Add an edge from a source io to a random combinational cell.
    io_cells = [cid for cid, c in net.cells.items() if c.cell_type == "io"]
    comb_cells = [cid for cid, c in net.cells.items()
                  if not c.is_sequential and c.cell_type != "io"]
    if io_cells and comb_cells:
        net.add_edge(io_cells[0], comb_cells[int(rng.integers(len(comb_cells)))])
        extended = static_timing_analysis(net, FREEPDK15).critical_path_ps
        assert extended >= base - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["add16", "mul16", "xor16", "sh16", "mux16"]),
                min_size=1, max_size=10))
def test_property_path_cost_monotone_in_length(middle):
    """Extending a path never reduces its area or delay."""
    shorter, longer = Synthesizer().synthesize_path_batch(
        [["dff16"] + middle + ["dff16"], ["dff16"] + middle + ["xor16", "dff16"]])
    assert longer.area_um2 >= shorter.area_um2
    assert longer.timing_ps >= shorter.timing_ps


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_property_effort_never_hurts_timing(seed):
    g = random_pipeline_graph(np.random.default_rng(seed), 3, 3)
    low = Synthesizer(effort="low").synthesize(g)
    high = Synthesizer(effort="high").synthesize(g)
    assert high.timing_ps <= low.timing_ps * 1.001


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_property_power_gating_only_reduces(seed):
    g = random_pipeline_graph(np.random.default_rng(seed), 2, 3)
    synth = Synthesizer(effort="low")
    base = synth.synthesize(g)
    gated = synth.synthesize(g, activity={nid: 0.0 for nid in np.flatnonzero(g.is_sequential).tolist()})
    assert gated.power_mw <= base.power_mw + 1e-12
