"""Tests for the reference synthesizer: library, passes, STA, power, scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphir import CompiledGraph, GraphBuilder
from repro.hdl import Circuit, Module, adder_tree
from repro.synth import (
    FREEPDK15,
    MappedNetlist,
    Synthesizer,
    buffer_insertion,
    common_subexpression_elimination,
    mac_fusion,
    scale_result,
    scale_value,
    static_timing_analysis,
    total_area,
    total_power,
)


def mac_graph(order="mul_first") -> CompiledGraph:
    """Chain io8 -> (mul16 -> add16 | add16 -> mul16) -> dff16 -> io16."""
    g = GraphBuilder("chain")
    a = g.add_node("io", 8)
    first = g.add_node("mul" if order == "mul_first" else "add", 16)
    second = g.add_node("add" if order == "mul_first" else "mul", 16)
    d = g.add_node("dff", 16)
    o = g.add_node("io", 16)
    g.add_edge(a, first)
    g.add_edge(first, second)
    g.add_edge(second, d)
    g.add_edge(d, o)
    return g.compile()


class TestLibrary:
    def test_mul_area_superlinear(self):
        lib = FREEPDK15
        a8 = lib.cost("mul", 8).area
        a16 = lib.cost("mul", 16).area
        assert a16 > 3 * a8  # quadratic-ish growth

    def test_add_area_linear(self):
        lib = FREEPDK15
        assert lib.cost("add", 32).area == pytest.approx(2 * lib.cost("add", 16).area, rel=0.05)

    def test_div_slower_than_mul(self):
        lib = FREEPDK15
        assert lib.cost("div", 16).delay > lib.cost("mul", 16).delay

    def test_mac_cheaper_than_mul_plus_add(self):
        lib = FREEPDK15
        mac = lib.cost("mac", 16)
        mul, add = lib.cost("mul", 16), lib.cost("add", 16)
        assert mac.area < mul.area + add.area
        assert mac.delay < mul.delay + add.delay

    def test_io_has_no_area(self):
        assert FREEPDK15.cost("io", 32).area == 0.0

    def test_dff_costs_scale_with_width(self):
        lib = FREEPDK15
        assert lib.cost("dff", 32).area == pytest.approx(2 * lib.cost("dff", 16).area)

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            FREEPDK15.cost("qubit", 8)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["add", "mul", "mux", "xor", "sh", "eq", "div"]),
           st.integers(2, 64))
    def test_property_costs_positive_and_monotone(self, t, w):
        lib = FREEPDK15
        c1, c2 = lib.cost(t, w), lib.cost(t, w + 1)
        assert c1.area > 0 and c1.delay > 0 and c1.energy > 0
        assert c2.area >= c1.area


class TestPasses:
    def test_cse_merges_duplicates(self):
        c = Circuit()
        a, b = c.input("a", 8), c.input("b", 8)
        x = a + b
        y = a + b  # identical expression
        c.output("o1", x)
        c.output("o2", y)
        net = MappedNetlist.from_graphir(c.finalize())
        removed = common_subexpression_elimination(net)
        assert removed == 1

    def test_cse_does_not_merge_registers(self):
        c = Circuit()
        a = c.input("a", 8)
        c.reg(a)
        c.reg(a)
        net = MappedNetlist.from_graphir(c.finalize())
        assert common_subexpression_elimination(net) == 0

    def test_mac_fusion_happens_for_mul_then_add(self):
        net = MappedNetlist.from_graphir(mac_graph("mul_first"))
        assert mac_fusion(net) == 1
        types = sorted(cell.cell_type for cell in net.cells.values())
        assert "mac" in types and "mul" not in types

    def test_no_fusion_for_add_then_mul(self):
        net = MappedNetlist.from_graphir(mac_graph("add_first"))
        assert mac_fusion(net) == 0

    def test_no_fusion_when_mul_has_other_consumers(self):
        g = GraphBuilder()
        a = g.add_node("io", 8)
        m = g.add_node("mul", 16)
        add = g.add_node("add", 16)
        other = g.add_node("xor", 16)
        g.add_edge(a, m)
        g.add_edge(m, add)
        g.add_edge(m, other)
        net = MappedNetlist.from_graphir(g.compile())
        assert mac_fusion(net) == 0

    def test_buffer_insertion_splits_fanout(self):
        g = GraphBuilder()
        src = g.add_node("dff", 8)
        for _ in range(20):
            sink = g.add_node("xor", 8)
            g.add_edge(src, sink)
        net = MappedNetlist.from_graphir(g.compile())
        added = buffer_insertion(net)
        assert added > 0
        assert all(len(net.succ[cid]) <= 6 for cid in net.cells)

    def test_order_sensitivity_end_to_end(self):
        """The paper's motivating example: [mul, add] beats [add, mul]."""
        synth = Synthesizer(effort="low")
        fused = synth.synthesize(mac_graph("mul_first"))
        unfused = synth.synthesize(mac_graph("add_first"))
        assert fused.area_um2 < unfused.area_um2
        assert fused.timing_ps < unfused.timing_ps


class TestSTA:
    def test_empty_graph(self):
        report = static_timing_analysis(MappedNetlist(), FREEPDK15)
        assert report.critical_path_ps == 0.0

    def test_deeper_pipeline_shortens_critical_path(self):
        def build(stages):
            c = Circuit()
            x = c.input("x", 16)
            y = x
            for _ in range(4):
                y = y * 3  # deep combinational chain
                if stages:
                    y = c.reg(y)
            c.output("o", y)
            return c.finalize()

        synth = Synthesizer(effort="low")
        deep = synth.synthesize(build(stages=False))
        piped = synth.synthesize(build(stages=True))
        assert piped.timing_ps < deep.timing_ps

    def test_combinational_loop_detected(self):
        g = GraphBuilder()
        a = g.add_node("and", 8)
        b = g.add_node("or", 8)
        g.add_edge(a, b)
        g.add_edge(b, a)
        net = MappedNetlist.from_graphir(g.compile())
        with pytest.raises(ValueError, match="combinational loop"):
            static_timing_analysis(net, FREEPDK15)

    def test_register_feedback_is_legal(self):
        c = Circuit()
        a = c.input("a", 8)
        acc = c.reg_declare(8)
        c.connect_next(acc, acc + a)
        net = MappedNetlist.from_graphir(c.finalize())
        report = static_timing_analysis(net, FREEPDK15)
        assert report.critical_path_ps > 0

    def test_critical_path_cells_are_connected(self):
        net = MappedNetlist.from_graphir(mac_graph("mul_first"))
        report = static_timing_analysis(net, FREEPDK15)
        cells = report.critical_cells
        assert len(cells) >= 2
        for src, dst in zip(cells, cells[1:]):
            assert dst in net.succ[src]


class TestPowerArea:
    def test_area_sums_cells(self):
        net = MappedNetlist.from_graphir(mac_graph())
        area = total_area(net, FREEPDK15)
        manual = sum(FREEPDK15.cost(c.cell_type, c.width).area for c in net.cells.values())
        assert area == pytest.approx(manual)

    def test_power_scales_with_frequency(self):
        net = MappedNetlist.from_graphir(mac_graph())
        p1 = total_power(net, FREEPDK15, frequency_ghz=1.0)
        p2 = total_power(net, FREEPDK15, frequency_ghz=2.0)
        assert p2 > p1
        assert p2 < 2.5 * p1  # leakage component does not scale

    def test_activity_coefficient_reduces_power(self):
        net = MappedNetlist.from_graphir(mac_graph())
        dff_id = next(cid for cid, c in net.cells.items() if c.cell_type == "dff")
        base = total_power(net, FREEPDK15, 1.0)
        gated = total_power(net, FREEPDK15, 1.0, activity={dff_id: 0.01})
        assert gated < base


class TestSynthesizer:
    def test_result_fields_populated(self):
        result = Synthesizer(effort="low").synthesize(mac_graph())
        assert result.timing_ps > 0
        assert result.area_um2 > 0
        assert result.power_mw > 0
        assert result.num_cells >= 4
        assert result.runtime_s > 0
        assert result.frequency_ghz == pytest.approx(1000 / result.timing_ps)

    def test_higher_effort_not_slower_design(self):
        class Wide(Module):
            def build(self, c):
                xs = [c.input(f"x{i}", 16) for i in range(8)]
                s = adder_tree(c, [x * x for x in xs])
                c.output("o", c.reg(s))

        g = Wide().elaborate()
        low = Synthesizer(effort="low").synthesize(g)
        high = Synthesizer(effort="high").synthesize(g)
        assert high.timing_ps <= low.timing_ps * 1.001

    def test_invalid_effort(self):
        with pytest.raises(ValueError):
            Synthesizer(effort="turbo")

    def test_deterministic(self):
        r1 = Synthesizer(effort="low").synthesize(mac_graph())
        r2 = Synthesizer(effort="low").synthesize(mac_graph())
        assert r1.area_um2 == r2.area_um2
        assert r1.timing_ps == r2.timing_ps

    def test_bigger_design_costs_more(self):
        class Tree(Module):
            def __init__(self, n):
                super().__init__(n=n)

            def build(self, c):
                xs = [c.input(f"x{i}", 8) for i in range(self.params["n"])]
                c.output("o", c.reg(adder_tree(c, xs)))

        small = Synthesizer(effort="low").synthesize(Tree(4).elaborate())
        big = Synthesizer(effort="low").synthesize(Tree(32).elaborate())
        assert big.area_um2 > small.area_um2
        assert big.gate_count > small.gate_count


class TestPathSynthesis:
    def test_path_empty_raises(self):
        with pytest.raises(ValueError):
            Synthesizer().synthesize_path_batch([["io8"], []])

    def test_path_unknown_token_raises(self):
        with pytest.raises(KeyError):
            Synthesizer().synthesize_path_batch([["io8", "warp9"]])

    def test_paper_order_example(self):
        """Table 5 labels must be order-sensitive: [mul,add] < [add,mul]."""
        mul_first, add_first = Synthesizer().synthesize_path_batch(
            [["io8", "mul16", "add16", "dff16"], ["io8", "add16", "mul16", "dff16"]])
        assert mul_first.area_um2 < add_first.area_um2
        assert mul_first.timing_ps < add_first.timing_ps

    def test_longer_path_slower(self):
        short, long = Synthesizer().synthesize_path_batch(
            [["dff16", "add16", "dff16"], ["dff16", "add16", "add16", "add16", "dff16"]])
        assert long.timing_ps > short.timing_ps
        assert long.area_um2 > short.area_um2

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["add16", "mul16", "xor16", "mux16", "sh16"]),
                    min_size=1, max_size=8))
    def test_property_path_labels_positive(self, middle):
        [res] = Synthesizer().synthesize_path_batch([["dff16"] + middle + ["dff16"]])
        assert res.timing_ps > 0 and res.area_um2 > 0 and res.power_mw > 0


class TestScaling:
    def test_table12_conversion(self):
        """65nm -> 15nm must reproduce the paper's Table 12 scaled row."""
        scaled = scale_result(timing_ps=1020.0, area_um2=846563.0, power_mw=132.0,
                              from_nm=65, to_nm=15)
        assert scaled.timing_ps == pytest.approx(330.0, rel=0.02)
        assert scaled.area_um2 == pytest.approx(97302.0, rel=0.02)
        assert scaled.power_mw == pytest.approx(65.90, rel=0.02)

    def test_identity_scaling(self):
        assert scale_value(42.0, "area", 65, 65) == pytest.approx(42.0)

    def test_scaling_down_shrinks_everything(self):
        s = scale_result(1000.0, 1000.0, 100.0, from_nm=90, to_nm=15)
        assert s.timing_ps < 1000 and s.area_um2 < 1000 and s.power_mw < 100

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            scale_value(1.0, "area", 65, 3)

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError):
            scale_value(1.0, "volume", 65, 15)

    def test_round_trip(self):
        v = scale_value(scale_value(7.0, "power", 65, 15), "power", 15, 65)
        assert v == pytest.approx(7.0)
