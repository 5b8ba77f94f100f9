"""Tests for the hardware construction DSL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import (
    Circuit,
    Module,
    adder_tree,
    counter,
    fifo,
    lfsr,
    max_tree,
    mux_tree,
    pipeline,
    priority_arbiter,
    reduce_tree,
    register_file,
    shift_register,
)


class Mac(Module):
    """The paper's Figure 2 running example: 8-bit multiply-accumulate."""

    def __init__(self, width=8):
        super().__init__(width=width)

    def build(self, c):
        w = self.params["width"]
        a = c.input("a", w)
        b = c.input("b", w)
        prod = a * b
        acc = c.reg(prod + prod.resized(2 * w), "acc")
        c.output("out", acc)


class TestSignalOps:
    def setup_method(self):
        self.c = Circuit("t")
        self.a = self.c.input("a", 8)
        self.b = self.c.input("b", 8)

    def test_add_width(self):
        assert (self.a + self.b).width == 8

    def test_mul_width_doubles(self):
        assert (self.a * self.b).width == 16

    def test_mul_width_clamps_at_64(self):
        c = Circuit()
        x = c.input("x", 64)
        assert (x * x).width == 64

    def test_div_keeps_dividend_width(self):
        assert (self.a // self.b).width == 8
        assert (self.a % self.b).width == 8

    def test_compare_is_one_bit(self):
        assert self.a.eq(self.b).width == 1
        assert self.a.lt(self.b).width == 1
        assert self.a.gt(5).width == 1

    def test_compare_node_width_is_operand_width(self):
        eq = self.a.eq(self.b)
        g = self.c.finalize()
        assert g.type_names[eq.node_id] == "eq"
        assert g.widths[eq.node_id] == 8

    def test_reduce_ops(self):
        for red in (self.a.reduce_and(), self.a.reduce_or(), self.a.reduce_xor()):
            assert red.width == 1

    def test_constant_operand_adds_no_node(self):
        before = self.c.graph.next_node_id
        _ = self.a + 3
        assert self.c.graph.next_node_id == before + 1  # only the adder

    def test_bitwise_types(self):
        ops = {"and": self.a & self.b, "or": self.a | self.b,
               "xor": self.a ^ self.b, "not": ~self.a}
        g = self.c.finalize()
        for expected_type, sig in ops.items():
            assert g.type_names[sig.node_id] == expected_type

    def test_shift(self):
        sh = self.a << 2
        assert self.c.finalize().type_names[sh.node_id] == "sh"
        assert sh.width == 8

    def test_resized_is_free(self):
        before = self.c.graph.next_node_id
        r = self.a.resized(16)
        assert r.width == 16
        assert r.node_id == self.a.node_id
        assert self.c.graph.next_node_id == before

    def test_cross_circuit_mixing_raises(self):
        other = Circuit("o")
        x = other.input("x", 8)
        with pytest.raises(ValueError):
            _ = self.a + x


class TestCircuit:
    def test_mux(self):
        c = Circuit()
        sel = c.input("sel", 1)
        a = c.input("a", 8)
        b = c.input("b", 8)
        m = c.mux(sel, a, b)
        assert m.width == 8
        g = c.finalize()
        assert g.type_names[m.node_id] == "mux"
        assert len(g.predecessors(m.node_id)) == 3

    def test_reg_feedback_loop(self):
        c = Circuit()
        a = c.input("a", 8)
        acc = c.reg_declare(8, "acc")
        c.connect_next(acc, acc + a)
        assert len(c.finalize().predecessors(acc.node_id)) == 1

    def test_connect_next_rejects_plain_reg(self):
        c = Circuit()
        a = c.input("a", 8)
        r = c.reg(a)
        with pytest.raises(ValueError):
            c.connect_next(r, a)

    def test_output_edge(self):
        c = Circuit()
        a = c.input("a", 8)
        out = c.output("y", a)
        assert a.node_id in c.finalize().predecessors(out.node_id)


class TestModule:
    def test_mac_elaborates_figure2_shape(self):
        g = Mac(width=8).elaborate()
        counts = g.token_counts()
        assert counts["io8"] == 2
        assert counts["mul16"] == 1
        assert counts["dff16"] == 1

    def test_design_name_includes_params(self):
        assert Mac(width=16).design_name == "mac_width16"

    def test_elaborate_is_deterministic(self):
        g1 = Mac(width=8).elaborate()
        g2 = Mac(width=8).elaborate()
        assert g1.token_counts() == g2.token_counts()
        assert g1.num_edges == g2.num_edges

    def test_abstract_build_raises(self):
        with pytest.raises(NotImplementedError):
            Module().elaborate()


class TestStructures:
    def _inputs(self, c, n, w=8):
        return [c.input(f"i{k}", w) for k in range(n)]

    def test_adder_tree_count(self):
        c = Circuit()
        sigs = self._inputs(c, 8)
        adder_tree(c, sigs)
        assert c.finalize().token_counts()["add8"] == 7  # n-1 adders

    def test_adder_tree_odd(self):
        c = Circuit()
        adder_tree(c, self._inputs(c, 5))
        assert c.finalize().token_counts()["add8"] == 4

    def test_adder_tree_single_passthrough(self):
        c = Circuit()
        sigs = self._inputs(c, 1)
        out = adder_tree(c, sigs)
        assert out is sigs[0]

    def test_adder_tree_empty_raises(self):
        with pytest.raises(ValueError):
            adder_tree(Circuit(), [])

    def test_mux_tree_count(self):
        c = Circuit()
        sel = c.input("sel", 3)
        mux_tree(c, sel, self._inputs(c, 8))
        assert c.finalize().token_counts()["mux8"] == 7

    def test_reduce_tree_ops(self):
        for op, token in [("and", "and8"), ("or", "or8"), ("xor", "xor8")]:
            c = Circuit()
            reduce_tree(c, self._inputs(c, 4), op)
            assert c.finalize().token_counts()[token] == 3

    def test_reduce_tree_bad_op(self):
        c = Circuit()
        with pytest.raises(ValueError):
            reduce_tree(c, self._inputs(c, 2), "nand")

    def test_max_tree(self):
        c = Circuit()
        max_tree(c, self._inputs(c, 4))
        counts = c.finalize().token_counts()
        assert counts["mux8"] == 3
        assert counts["lgt8"] == 3

    def test_register_file_structure(self):
        c = Circuit()
        wd = c.input("wd", 16)
        wa = c.input("wa", 3)
        ra = c.input("ra", 3)
        register_file(c, wd, wa, ra, depth=8)
        counts = c.finalize().token_counts()
        assert counts["dff16"] == 8
        assert counts["eq8"] == 8  # write decode (addr width 3 rounds to 8... node width is max operand width)

    def test_fifo_depth(self):
        c = Circuit()
        d = c.input("d", 8)
        fifo(c, d, depth=5)
        assert c.finalize().token_counts()["dff8"] == 5

    def test_counter_has_feedback(self):
        c = Circuit()
        q = counter(c, 8)
        g = c.finalize()
        preds = g.predecessors(q.node_id)
        assert len(preds) == 1
        assert g.type_names[preds[0]] == "add"

    def test_shift_register_taps(self):
        c = Circuit()
        d = c.input("d", 4)
        taps = shift_register(c, d, stages=3)
        assert len(taps) == 3
        assert c.finalize().token_counts()["dff4"] == 3

    def test_lfsr_elaborates(self):
        c = Circuit()
        lfsr(c, 16)
        assert c.finalize().token_counts()["dff16"] == 1

    def test_priority_arbiter(self):
        c = Circuit()
        reqs = [c.input(f"r{k}", 1) for k in range(4)]
        grants = priority_arbiter(c, reqs)
        assert len(grants) == 4
        assert grants[0] is reqs[0]

    def test_pipeline_zero_stages_is_wire(self):
        c = Circuit()
        d = c.input("d", 8)
        assert pipeline(c, d, 0) is d

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 32))
    def test_property_adder_tree_is_n_minus_1(self, n):
        c = Circuit()
        sigs = [c.input(f"i{k}", 8) for k in range(n)]
        adder_tree(c, sigs)
        assert c.finalize().token_counts()["add8"] == n - 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 32))
    def test_property_mux_tree_is_n_minus_1(self, n):
        c = Circuit()
        sel = c.input("sel", 6)
        sigs = [c.input(f"i{k}", 8) for k in range(n)]
        mux_tree(c, sel, sigs)
        assert c.finalize().token_counts()["mux8"] == n - 1
