"""Memoized instance elaboration must be node-for-node invisible.

Each (module, parameter binding, input shape) elaborates once; further
occurrences stamp the recorded template.  Every test compares the full
serialized graph against the unmemoized walk.
"""

import pytest

from repro.graphir import to_json
from repro.verilog.elaborator import (ElaborationError, ElaborationMemo,
                                      elaborate, elaborate_source)
from repro.verilog.parser import parse_source

REPEATED = """
module adder #(parameter W = 8) (input [W-1:0] a, input [W-1:0] b,
                                 output [W-1:0] s);
  assign s = a + b;
endmodule

module lane #(parameter W = 8) (input [W-1:0] x, input [W-1:0] y,
                                output [W-1:0] z);
  wire [W-1:0] t;
  adder #(.W(W)) u0 (.a(x), .b(y), .s(t));
  adder #(.W(W)) u1 (.a(t), .b(x), .s(z));
endmodule

module top (input [31:0] in0, input [31:0] in1, output [31:0] out);
  wire [31:0] acc0, acc1, acc2, acc3;
  lane #(.W(32)) l0 (.x(in0), .y(in1), .z(acc0));
  lane #(.W(32)) l1 (.x(acc0), .y(in1), .z(acc1));
  lane #(.W(32)) l2 (.x(acc1), .y(in0), .z(acc2));
  lane #(.W(32)) l3 (.x(acc2), .y(acc1), .z(acc3));
  assign out = acc3;
endmodule
"""

GENERATE_FOR = """
module cell #(parameter W = 4) (input [W-1:0] d, output [W-1:0] q);
  assign q = d ^ (d >> 1);
endmodule
module gtop (input [15:0] din, output [15:0] dout);
  wire [15:0] s0;
  wire [15:0] t0;
  genvar i;
  assign s0 = din;
  generate
    for (i = 0; i < 4; i = i + 1) begin : g
      cell #(.W(16)) c (.d(s0), .q(t0));
    end
  endgenerate
  assign dout = t0;
endmodule
"""

PARAM_OVERRIDES = """
module a #(parameter W = 4) (input [W-1:0] x, output [W-1:0] y);
  assign y = x + 1;
endmodule
module t (input [7:0] p, output [7:0] q, output [3:0] r);
  a #(.W(8)) u0 (.x(p), .y(q));
  a #(.W(4)) u1 (.x(p[3:0]), .y(r));
endmodule
"""

REGISTERED = """
module stage #(parameter W = 8) (input clk, input [W-1:0] d,
                                 output [W-1:0] q);
  reg [W-1:0] state;
  always @(posedge clk) begin
    state <= d + state;
  end
  assign q = state;
endmodule
module rtop (input clk, input [7:0] din, output [7:0] dout);
  wire [7:0] m0, m1;
  stage #(.W(8)) s0 (.clk(clk), .d(din), .q(m0));
  stage #(.W(8)) s1 (.clk(clk), .d(m0), .q(m1));
  assign dout = m1;
endmodule
"""


class TestMemoParity:
    @pytest.mark.parametrize("src,top", [
        (REPEATED, "top"),
        (GENERATE_FOR, "gtop"),
        (PARAM_OVERRIDES, "t"),
        (REGISTERED, "rtop"),
    ])
    def test_memoized_equals_fresh(self, src, top):
        ref = elaborate_source(src, top, memo=False)
        memoized = elaborate_source(src, top, memo=True)
        assert to_json(memoized) == to_json(ref)

    def test_repeated_instances_hit_the_memo(self):
        memo = ElaborationMemo()
        elaborate_source(REPEATED, "top", memo=memo)
        # lane x4 (1 miss + 3 stamps) and adder x2 inside the one fresh
        # lane (1 miss + 1 stamp).
        assert memo.misses == 2
        assert memo.hits == 4

    def test_param_overrides_keep_distinct_templates(self):
        memo = ElaborationMemo()
        elaborate_source(PARAM_OVERRIDES, "t", memo=memo)
        assert memo.misses == 2
        assert memo.hits == 0

    def test_cross_call_reuse_with_shared_file(self):
        file = parse_source(REPEATED)
        ref = elaborate(file, "top", memo=False)
        memo = ElaborationMemo()
        elaborate(file, "top", memo=memo)
        misses_after_first = memo.misses
        second = elaborate(file, "top", memo=memo)
        assert to_json(second) == to_json(ref)
        assert memo.misses == misses_after_first  # all instances stamped

    def test_registered_instances_replay_pending_regs(self):
        # The template must carry reg_declare bookkeeping: a stamped
        # stage's register still accepts its connect_next edge.
        memo = ElaborationMemo()
        g = elaborate_source(REGISTERED, "rtop", memo=memo)
        assert memo.hits == 1
        ref = elaborate_source(REGISTERED, "rtop", memo=False)
        assert to_json(g) == to_json(ref)


TIED_OFF = """
module pe (input clk, input [15:0] a, input [15:0] b, input [15:0] c,
           output [15:0] y);
  reg [15:0] acc;
  always @(posedge clk) begin
    acc <= a * b + c;
  end
  assign y = acc;
endmodule
module ptop (input clk, input [15:0] x, input [15:0] w,
             output [15:0] o0, output [15:0] o1);
  pe u0 (.clk(clk), .a(x), .b(w), .c(16'd0), .y(o0));
  pe u1 (.clk(clk), .a(w), .b(x), .c(16'd0), .y(o1));
endmodule
"""

# The same design with the tied-off literal written inside the child.
TIED_INLINED = (TIED_OFF.replace("a * b + c;", "a * b + 16'd0;")
                .replace(".c(16'd0), ", ""))


class TestTiedOffPorts:
    def test_constant_on_input_port_folds_like_a_literal(self):
        memoized = elaborate_source(TIED_OFF, "ptop", memo=True)
        fresh = elaborate_source(TIED_OFF, "ptop", memo=False)
        inlined = elaborate_source(TIED_INLINED, "ptop")
        assert memoized.fingerprint() == fresh.fingerprint()
        assert memoized.token_counts() == inlined.token_counts()
        assert memoized.num_edges == inlined.num_edges

    def test_memo_keys_on_the_constant(self):
        memo = ElaborationMemo()
        elaborate_source(TIED_OFF, "ptop", memo=memo)
        assert (memo.misses, memo.hits) == (1, 1)
        src = TIED_OFF.replace(".c(16'd0), .y(o1)", ".c(16'd7), .y(o1)")
        memo = ElaborationMemo()
        g = elaborate_source(src, "ptop", memo=memo)
        assert (memo.misses, memo.hits) == (2, 0)
        assert to_json(g) == to_json(elaborate_source(src, "ptop", memo=False))

    @pytest.mark.parametrize("use", [
        "assign y = c;",                                   # output port
        "reg [15:0] r; always @(posedge clk) r <= c; assign y = a;",  # register
    ])
    def test_constant_still_rejected_where_a_literal_is(self, use):
        child = ("module k (input clk, input [15:0] a, input [15:0] c, "
                 "output [15:0] y); " + use + " endmodule\n")
        top = ("module ktop (input clk, input [15:0] x, output [15:0] o); "
               "k u0 (.clk(clk), .a(x), .c(16'd3), .y(o)); endmodule\n")
        with pytest.raises(ElaborationError, match="constant"):
            elaborate_source(child.replace("<= c;", "<= 16'd3;")
                             .replace("= c;", "= 16'd3;") + top, "ktop")
        with pytest.raises(ElaborationError, match="constant"):
            elaborate_source(child + top, "ktop")
