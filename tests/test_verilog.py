"""Tests for the Verilog front-end: lexer, parser, elaborator."""

import pytest

from repro.synth import Synthesizer
from repro.verilog import (
    ElaborationError,
    VerilogSyntaxError,
    elaborate_source,
    parse_source,
    tokenize,
)

MAC_SRC = """
// 8-bit multiply-accumulate (the paper's Figure 2 example)
module mac(input [7:0] a, input [7:0] b, input clk, output [15:0] y);
  wire [15:0] p;
  assign p = a * b;
  reg [15:0] acc;
  always @(posedge clk) acc <= acc + p;
  assign y = acc;
endmodule
"""


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("module m; endmodule")
        assert [t.kind for t in tokens] == ["KEYWORD", "IDENT", "OP", "KEYWORD", "EOF"]

    def test_comments_stripped(self):
        tokens = tokenize("a // line\n /* block\ncomment */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]

    def test_sized_literals(self):
        from repro.verilog.lexer import parse_number
        assert parse_number("8'hFF") == (255, 8)
        assert parse_number("4'b1010") == (10, 4)
        assert parse_number("42") == (42, None)
        assert parse_number("8'bxxxx_1111") == (15, 8)

    def test_bad_character(self):
        with pytest.raises(VerilogSyntaxError):
            tokenize('module `bad')


class TestParser:
    def test_mac_module_structure(self):
        src = parse_source(MAC_SRC)
        m = src.module("mac")
        assert [p.name for p in m.ports] == ["a", "b", "clk", "y"]
        assert [p.direction for p in m.ports] == ["input", "input", "input", "output"]
        assert len(m.assigns) == 2
        assert len(m.always_blocks) == 1

    def test_parameters(self):
        src = parse_source("""
        module p #(parameter W = 8) (input [W-1:0] x, output [W-1:0] y);
          assign y = x + 1;
        endmodule
        """)
        m = src.module("p")
        assert m.params[0].name == "W"

    def test_nonansi_ports(self):
        src = parse_source("""
        module old(a, b, y);
          input [3:0] a, b;
          output [3:0] y;
          assign y = a & b;
        endmodule
        """)
        m = src.module("old")
        dirs = {p.name: p.direction for p in m.ports}
        assert dirs == {"a": "input", "b": "input", "y": "output"}

    def test_instance_named_and_positional(self):
        src = parse_source("""
        module child(input [3:0] x, output [3:0] y);
          assign y = x;
        endmodule
        module top(input [3:0] a, output [3:0] b, output [3:0] c);
          child u1 (.x(a), .y(b));
          child u2 (a, c);
        endmodule
        """)
        m = src.module("top")
        assert len(m.instances) == 2
        assert m.instances[0].connections[0][0] == "x"
        assert m.instances[1].connections[0][0] == ""

    def test_expression_precedence(self):
        src = parse_source("""
        module e(input [7:0] a, input [7:0] b, output [7:0] y);
          assign y = a + b * 2;
        endmodule
        """)
        from repro.verilog import ast
        expr = src.module("e").assigns[0].value
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_ternary_and_selects(self):
        src = parse_source("""
        module t(input [7:0] a, input s, output [3:0] y);
          assign y = s ? a[7:4] : a[3:0];
        endmodule
        """)
        from repro.verilog import ast
        expr = src.module("t").assigns[0].value
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.if_true, ast.PartSelect)

    def test_syntax_error_reports_line(self):
        with pytest.raises(VerilogSyntaxError, match="line 2"):
            parse_source("module m;\n@@@\nendmodule")

    def test_missing_semicolon(self):
        with pytest.raises(VerilogSyntaxError):
            parse_source("module m(input a) endmodule")


class TestElaborator:
    def test_mac_produces_figure2_graphir(self):
        g = elaborate_source(MAC_SRC)
        counts = g.token_counts()
        assert counts["io8"] == 2
        assert counts["mul16"] == 1
        assert counts["add16"] == 1
        assert counts["dff16"] == 1
        assert counts["io16"] == 1

    def test_feedback_register_loop(self):
        g = elaborate_source(MAC_SRC)
        [dff] = g.ids_of_type("dff")
        [add] = g.ids_of_type("add")
        assert add in g.predecessors(dff)
        assert dff in g.predecessors(add)

    def test_parameters_resolve_widths(self):
        g = elaborate_source("""
        module p #(parameter W = 32) (input [W-1:0] x, output [W-1:0] y);
          assign y = x + 1;
        endmodule
        """)
        assert g.token_counts()["add32"] == 1

    def test_hierarchy_flattens(self):
        g = elaborate_source("""
        module leaf(input [7:0] x, output [7:0] y);
          assign y = x * x;
        endmodule
        module top(input [7:0] a, output [7:0] o);
          wire [7:0] mid;
          leaf l1 (.x(a), .y(mid));
          leaf l2 (.x(mid), .y(o));
        endmodule
        """)
        counts = g.token_counts()
        assert counts["mul16"] == 2  # one multiplier per instance

    def test_parameter_override_in_instance(self):
        g = elaborate_source("""
        module leaf #(parameter W = 8) (input [W-1:0] x, output [W-1:0] y);
          assign y = x + x;
        endmodule
        module top(input [31:0] a, output [31:0] o);
          leaf #(.W(32)) wide (.x(a), .y(o));
        endmodule
        """)
        assert g.token_counts()["add32"] == 1

    def test_ternary_becomes_mux(self):
        g = elaborate_source("""
        module t(input s, input [7:0] a, input [7:0] b, output [7:0] y);
          assign y = s ? a : b;
        endmodule
        """)
        assert g.token_counts()["mux8"] == 1

    def test_comparisons_and_reductions(self):
        g = elaborate_source("""
        module c(input [15:0] a, input [15:0] b, output y);
          assign y = (a == b) | (a < b) | (^a);
        endmodule
        """)
        counts = g.token_counts()
        assert counts["eq16"] == 1
        assert counts["lgt16"] == 1
        assert counts["reduce_xor16"] == 1

    def test_undefined_name(self):
        with pytest.raises(ElaborationError, match="undefined"):
            elaborate_source("""
            module u(output [7:0] y);
              assign y = ghost + 1;
            endmodule
            """)

    def test_combinational_loop_detected(self):
        with pytest.raises(ElaborationError, match="loop"):
            elaborate_source("""
            module l(output [7:0] y);
              wire [7:0] a;
              wire [7:0] b;
              assign a = b + 1;
              assign b = a + 1;
              assign y = a;
            endmodule
            """)

    def test_register_loop_is_legal(self):
        g = elaborate_source("""
        module ctr(input clk, output [7:0] q);
          reg [7:0] count;
          always @(posedge clk) count <= count + 1;
          assign q = count;
        endmodule
        """)
        assert g.token_counts()["dff8"] == 1

    def test_undeclared_register(self):
        with pytest.raises(ElaborationError, match="never declared"):
            elaborate_source("""
            module r(input clk, input [7:0] d, output [7:0] q);
              always @(posedge clk) phantom <= d;
              assign q = d;
            endmodule
            """)

    def test_top_inference_ambiguous(self):
        with pytest.raises(ElaborationError, match="top"):
            elaborate_source("""
            module a(input x, output y); assign y = x; endmodule
            module b(input x, output y); assign y = x; endmodule
            """)

    def test_explicit_top(self):
        g = elaborate_source("""
        module a(input [7:0] x, output [7:0] y); assign y = x + 1; endmodule
        module b(input [7:0] x, output [7:0] y); assign y = x * x; endmodule
        """, top="b")
        assert g.token_counts()["mul16"] == 1

    def test_dynamic_bit_select_costs_a_shifter(self):
        g = elaborate_source("""
        module d(input [7:0] a, input [2:0] i, output y);
          assign y = a[i];
        endmodule
        """)
        assert g.token_counts()["sh8"] == 1

    def test_static_part_select_is_free(self):
        g = elaborate_source("""
        module s(input [15:0] a, output [7:0] y);
          assign y = a[7:0];
        endmodule
        """)
        # Only the two ports; the select adds no vertex.
        assert g.num_nodes == 2


class TestVerilogToSynthesis:
    """The full paper flow: Verilog text -> GraphIR -> synthesis labels."""

    def test_mac_synthesizes(self):
        result = Synthesizer(effort="low").synthesize(elaborate_source(MAC_SRC))
        assert result.timing_ps > 0 and result.area_um2 > 0

    def test_order_sensitivity_visible_from_verilog(self):
        mul_first = elaborate_source("""
        module f(input [7:0] a, input [15:0] c, input clk, output [15:0] y);
          reg [15:0] r;
          always @(posedge clk) r <= a * a + c;
          assign y = r;
        endmodule
        """)
        add_first = elaborate_source("""
        module g(input [7:0] a, input [15:0] c, input clk, output [15:0] y);
          reg [15:0] r;
          always @(posedge clk) r <= (a + a) * c;
          assign y = r;
        endmodule
        """)
        synth = Synthesizer(effort="low")
        assert synth.synthesize(mul_first).area_um2 < synth.synthesize(add_first).area_um2

    def test_sns_pipeline_accepts_verilog(self):
        """Verilog designs drop into the same path sampler as DSL designs."""
        from repro.core import PathSampler
        paths = PathSampler(k=1).sample(elaborate_source(MAC_SRC))
        assert any("mul16" in p.tokens for p in paths)
