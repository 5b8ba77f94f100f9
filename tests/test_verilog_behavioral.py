"""Tests for procedural if/else and case statements in always blocks."""

import pytest

from repro.synth import Synthesizer
from repro.verilog import elaborate_source, parse_source
from repro.verilog import ast


ENABLED_REG = """
module er(input clk, input en, input [7:0] d, output [7:0] q);
  reg [7:0] r;
  always @(posedge clk)
    if (en) r <= d;
  assign q = r;
endmodule
"""

COUNTER_WITH_RESET = """
module ctr(input clk, input rst, input en, output [15:0] q);
  reg [15:0] count;
  always @(posedge clk) begin
    if (rst)
      count <= 0;
    else if (en)
      count <= count + 1;
  end
  assign q = count;
endmodule
"""

ALU_CASE = """
module alu(input clk, input [1:0] op, input [15:0] a, input [15:0] b,
           output [15:0] y);
  reg [15:0] r;
  always @(posedge clk) begin
    case (op)
      0: r <= a + b;
      1: r <= a - b;
      2: r <= a & b;
      default: r <= a ^ b;
    endcase
  end
  assign y = r;
endmodule
"""


class TestMergeSemantics:
    def test_if_without_else_holds_value(self):
        """`if (en) r <= d;` infers a recirculation mux."""
        blk = parse_source(ENABLED_REG).module("er").always_blocks[0]
        assigns = blk.assigns
        assert len(assigns) == 1
        expr = assigns[0].value
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.if_false, ast.Identifier)
        assert expr.if_false.name == "r"

    def test_last_assignment_wins(self):
        src = """
        module m(input clk, input [7:0] a, output [7:0] q);
          reg [7:0] r;
          always @(posedge clk) begin
            r <= a;
            r <= a + 1;
          end
          assign q = r;
        endmodule
        """
        blk = parse_source(src).module("m").always_blocks[0]
        expr = blk.assigns[0].value
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"

    def test_targets_collected_through_branches(self):
        blk = parse_source(COUNTER_WITH_RESET).module("ctr").always_blocks[0]
        assert blk.targets() == {"count"}


class TestElaboration:
    def test_enable_becomes_mux(self):
        counts = elaborate_source(ENABLED_REG).token_counts()
        assert counts["mux8"] == 1
        assert counts["dff8"] == 1

    def test_reset_enable_counter(self):
        graph = elaborate_source(COUNTER_WITH_RESET)
        counts = graph.token_counts()
        assert counts["dff16"] == 1
        assert counts["add16"] == 1
        assert counts["mux16"] >= 2  # rst mux + en recirculation mux

    def test_case_alu(self):
        counts = elaborate_source(ALU_CASE).token_counts()
        assert counts["add16"] == 2      # a+b and a-b
        assert counts["and16"] == 1
        assert counts["xor16"] == 1
        assert counts["eq8"] >= 2        # op comparisons (2-bit op rounds up)
        assert counts["mux16"] >= 3      # one mux per non-default arm

    def test_nested_if_in_generate(self):
        src = """
        module lanes(input clk, input [3:0] en, input [31:0] d,
                     output [31:0] q);
          wire [31:0] merged;
          genvar i;
          generate
            for (i = 0; i < 4; i = i + 1) begin : lane
              reg [7:0] r;
              always @(posedge clk)
                if (en[i]) r <= d >> (8 * i);
              assign merged = r;
            end
          endgenerate
          assign q = merged;
        endmodule
        """
        counts = elaborate_source(src).token_counts()
        assert counts["dff8"] == 4
        # one enable mux per lane (at the shifted-data width)
        assert counts["mux32"] == 4

    def test_synthesizes(self):
        for src in (ENABLED_REG, COUNTER_WITH_RESET, ALU_CASE):
            result = Synthesizer(effort="low").synthesize(elaborate_source(src))
            assert result.area_um2 > 0

    def test_case_priority_order(self):
        """Earlier case items take priority over later duplicates."""
        src = """
        module p(input clk, input [1:0] op, input [7:0] a, output [7:0] y);
          reg [7:0] r;
          always @(posedge clk)
            case (op)
              0: r <= a + 1;
              0: r <= a + 2;
              default: r <= a;
            endcase
          assign y = r;
        endmodule
        """
        blk = parse_source(src).module("p").always_blocks[0]
        expr = blk.assigns[0].value
        # outermost ternary must test the FIRST item (op == 0 -> a+1)
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.if_true, ast.BinaryOp)
        assert isinstance(expr.if_true.right, ast.Number)
        assert expr.if_true.right.value == 1
