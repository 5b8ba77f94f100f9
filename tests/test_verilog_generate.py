"""Tests for Verilog generate-for unrolling."""

import pytest

from repro.synth import Synthesizer
from repro.verilog import ElaborationError, VerilogSyntaxError, elaborate_source, parse_source


SIMD_XOR = """
module lanes #(parameter N = 4) (
    input [31:0] a, input [31:0] b, input clk, output [31:0] y
);
  genvar i;
  wire [31:0] partial;
  generate
    for (i = 0; i < N; i = i + 1) begin : lane
      wire [7:0] la;
      wire [7:0] lb;
      assign la = a >> (8 * i);
      assign lb = b >> (8 * i);
      assign partial = (la ^ lb) << (8 * i);
    end
  endgenerate
  reg [31:0] r;
  always @(posedge clk) r <= partial;
  assign y = r;
endmodule
"""


class TestParsing:
    def test_generate_block_parsed(self):
        module = parse_source(SIMD_XOR).module("lanes")
        assert len(module.generates) == 1
        gen = module.generates[0]
        assert gen.genvar == "i"
        assert gen.label == "lane"
        assert len(gen.assigns) == 3
        assert len(gen.nets) == 2

    def test_condition_must_test_genvar(self):
        with pytest.raises(VerilogSyntaxError, match="genvar"):
            parse_source("""
            module m(output y);
              genvar i;
              generate
                for (i = 0; j < 4; i = i + 1) begin : g
                end
              endgenerate
              assign y = 0;
            endmodule
            """)


class TestUnrolling:
    def test_iteration_count_scales_hardware(self):
        g2 = elaborate_source(SIMD_XOR.replace("N = 4", "N = 2"))
        g8 = elaborate_source(SIMD_XOR.replace("N = 4", "N = 8"))
        c2, c8 = g2.token_counts(), g8.token_counts()
        assert c8["xor8"] == 8 and c2["xor8"] == 2

    def test_genvar_becomes_constant(self):
        """8*i shifts are constant shifts — sh vertices appear only for
        the data shifts, not genvar arithmetic."""
        graph = elaborate_source(SIMD_XOR)
        counts = graph.token_counts()
        assert counts["xor8"] == 4

    def test_local_names_isolated_per_iteration(self):
        """Each iteration's `la` is a distinct net — no cross-iteration
        merging (would collapse the xor count)."""
        counts = elaborate_source(SIMD_XOR).token_counts()
        assert counts["xor8"] == 4

    def test_multi_driver_net_joined(self):
        """`partial` has one driver per iteration; they join like concat."""
        graph = elaborate_source(SIMD_XOR)
        counts = graph.token_counts()
        # N-1 joins of the per-lane slices (at the slice width).
        assert counts["or8"] >= 3

    def test_generated_instances(self):
        src = """
        module leaf(input [7:0] x, output [7:0] y);
          assign y = x * x;
        endmodule
        module top #(parameter N = 3) (input [7:0] a, output [7:0] o);
          wire [7:0] acc;
          genvar k;
          generate
            for (k = 0; k < N; k = k + 1) begin : inst
              wire [7:0] part;
              leaf u (.x(a), .y(part));
              assign acc = part;
            end
          endgenerate
          assign o = acc;
        endmodule
        """
        counts = elaborate_source(src).token_counts()
        assert counts["mul16"] == 3  # one per generated instance

    def test_generated_registers(self):
        src = """
        module pipe(input clk, input [15:0] d, output [15:0] q);
          genvar s;
          wire [15:0] merged;
          generate
            for (s = 0; s < 4; s = s + 1) begin : stage
              reg [15:0] r;
              always @(posedge clk) r <= d + s;
              assign merged = r;
            end
          endgenerate
          assign q = merged;
        endmodule
        """
        counts = elaborate_source(src).token_counts()
        assert counts["dff16"] == 4

    def test_step_must_be_positive(self):
        src = SIMD_XOR.replace("i = i + 1", "i = i + 0")
        with pytest.raises(ElaborationError, match="positive"):
            elaborate_source(src)

    def test_unroll_bound(self):
        src = SIMD_XOR.replace("N = 4", "N = 100000")
        with pytest.raises(ElaborationError, match="unrolls past"):
            elaborate_source(src)

    def test_parameter_override_reaches_generate(self):
        src = SIMD_XOR + """
        module wrap(input [31:0] a, input [31:0] b, input clk, output [31:0] y);
          lanes #(.N(6)) u (.a(a), .b(b), .clk(clk), .y(y));
        endmodule
        """
        counts = elaborate_source(src, top="wrap").token_counts()
        assert counts["xor8"] == 6

    def test_synthesizes_end_to_end(self):
        result = Synthesizer(effort="low").synthesize(elaborate_source(SIMD_XOR))
        assert result.area_um2 > 0 and result.timing_ps > 0
