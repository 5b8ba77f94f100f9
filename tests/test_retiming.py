"""Tests for the backward-retiming pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_synth_properties import random_pipeline_graph

from repro.designs import get_design
from repro.graphir import CompiledGraph, GraphBuilder
from repro.synth import (
    FREEPDK15,
    MappedNetlist,
    retime_backward,
    static_timing_analysis,
    total_area,
)


def unbalanced_pipeline() -> CompiledGraph:
    """Deep front stage (mul chain) into a register, then a shallow stage."""
    g = GraphBuilder("unbalanced")
    src = g.add_node("dff", 16)
    deep = src
    for _ in range(3):
        node = g.add_node("mul", 16)
        g.add_edge(deep, node)
        deep = node
    mid = g.add_node("dff", 16)
    g.add_edge(deep, mid)
    shallow = g.add_node("xor", 16)
    g.add_edge(mid, shallow)
    sink = g.add_node("dff", 16)
    g.add_edge(shallow, sink)
    return g.compile()


class TestRetiming:
    def test_improves_unbalanced_pipeline(self):
        net = MappedNetlist.from_graphir(unbalanced_pipeline())
        before = static_timing_analysis(net, FREEPDK15).critical_path_ps
        moves = retime_backward(net, FREEPDK15, max_moves=4)
        after = static_timing_analysis(net, FREEPDK15).critical_path_ps
        assert moves >= 1
        assert after < before

    def test_never_worsens_timing(self):
        net = MappedNetlist.from_graphir(unbalanced_pipeline())
        before = static_timing_analysis(net, FREEPDK15).critical_path_ps
        retime_backward(net, FREEPDK15, max_moves=10)
        after = static_timing_analysis(net, FREEPDK15).critical_path_ps
        assert after <= before + 1e-9

    def test_balanced_pipeline_untouched(self):
        """A well-balanced pipeline has nothing to gain; rollback leaves
        it equivalent."""
        g = GraphBuilder("balanced")
        prev = g.add_node("dff", 16)
        for _ in range(3):
            node = g.add_node("add", 16)
            g.add_edge(prev, node)
            reg = g.add_node("dff", 16)
            g.add_edge(node, reg)
            prev = reg
        net = MappedNetlist.from_graphir(g.compile())
        before = static_timing_analysis(net, FREEPDK15).critical_path_ps
        retime_backward(net, FREEPDK15, max_moves=5)
        after = static_timing_analysis(net, FREEPDK15).critical_path_ps
        assert after <= before + 1e-9

    def test_rollback_restores_netlist(self):
        """When no move helps, cell/edge counts come back unchanged."""
        g = GraphBuilder("flat")
        a = g.add_node("dff", 8)
        x = g.add_node("xor", 8)
        d = g.add_node("dff", 8)
        g.add_edge(a, x)
        g.add_edge(x, d)
        net = MappedNetlist.from_graphir(g.compile())
        cells_before = net.num_cells
        edges_before = net.num_edges
        retime_backward(net, FREEPDK15, max_moves=3)
        assert net.num_cells == cells_before
        assert net.num_edges == edges_before

    def test_sequential_depth_preserved(self):
        """Retiming must not change the number of register stages on the
        moved path (one register before vs after the driver)."""
        net = MappedNetlist.from_graphir(unbalanced_pipeline())
        seq_before = sum(1 for c in net.cells.values() if c.is_sequential)
        moves = retime_backward(net, FREEPDK15, max_moves=1)
        seq_after = sum(1 for c in net.cells.values() if c.is_sequential)
        if moves:
            # single-fanin driver: one register swapped for one register
            assert seq_after == seq_before

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 5000))
    def test_property_retiming_never_hurts_random_graphs(self, seed):
        net = MappedNetlist.from_graphir(
            random_pipeline_graph(np.random.default_rng(seed), 3, 3))
        before = static_timing_analysis(net, FREEPDK15).critical_path_ps
        retime_backward(net, FREEPDK15, max_moves=5)
        # The STA raises on a combinational loop: still a legal netlist.
        after = static_timing_analysis(net, FREEPDK15).critical_path_ps
        assert after <= before + 1e-9

    @pytest.mark.parametrize("design", ["gemm4x4", "gemm8x8", "gemmini8x8",
                                        "gemmini8x8_w16", "gemmini16x16",
                                        "radixsort8"])
    def test_accumulator_register_is_not_moved(self, design):
        """An accumulator's register is no candidate: moving it backward
        across the cell that feeds it would wire that cell into its own
        input."""
        net = MappedNetlist.from_graphir(get_design(design).module.elaborate())
        before = static_timing_analysis(net, FREEPDK15).critical_path_ps
        retime_backward(net, FREEPDK15)
        after = static_timing_analysis(net, FREEPDK15).critical_path_ps
        assert after <= before + 1e-9
