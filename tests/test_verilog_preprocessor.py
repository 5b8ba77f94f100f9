"""Tests for the Verilog preprocessor."""

import pytest

from repro.verilog import (
    PreprocessorError,
    VerilogSyntaxError,
    elaborate_source,
    parse_source,
    preprocess,
    tokenize,
)


class TestDefine:
    def test_simple_macro(self):
        out = preprocess("`define W 16\nwire [`W-1:0] x;")
        assert "wire [16-1:0] x;" in out

    def test_define_without_value_is_one(self):
        out = preprocess("`define FLAG\n`FLAG")
        assert out.strip() == "1"

    def test_undef(self):
        src = "`define A 1\n`undef A\n`ifdef A\nyes\n`endif\nafter"
        out = preprocess(src)
        assert "yes" not in out and "after" in out

    def test_macro_expands_recursively(self):
        out = preprocess("`define A `B\n`define B 42\n`A")
        assert out.strip() == "42"

    def test_self_referential_macro_rejected(self):
        with pytest.raises(PreprocessorError, match="deep"):
            preprocess("`define A `A\n`A")

    def test_undefined_macro_rejected(self):
        with pytest.raises(PreprocessorError, match="undefined macro"):
            preprocess("wire x = `GHOST;")

    def test_function_like_macro_rejected(self):
        with pytest.raises(PreprocessorError, match="function-like"):
            preprocess("`define MAX(a,b) ((a)>(b)?(a):(b))")

    def test_external_defines(self):
        out = preprocess("`W", defines={"W": "8"})
        assert out.strip() == "8"


class TestConditionals:
    SRC = "`ifdef FPGA\nfpga_code\n`else\nasic_code\n`endif"

    def test_ifdef_taken(self):
        out = preprocess(self.SRC, defines={"FPGA": "1"})
        assert "fpga_code" in out and "asic_code" not in out

    def test_ifdef_not_taken(self):
        out = preprocess(self.SRC)
        assert "asic_code" in out and "fpga_code" not in out

    def test_ifndef(self):
        out = preprocess("`ifndef X\nno_x\n`endif")
        assert "no_x" in out

    def test_nested(self):
        src = ("`define A 1\n`ifdef A\n`ifdef B\nboth\n`else\nonly_a\n"
               "`endif\n`endif")
        out = preprocess(src)
        assert "only_a" in out and "both" not in out

    def test_defines_inside_untaken_branch_ignored(self):
        src = "`ifdef NOPE\n`define W 99\n`endif\n`ifdef W\nyes\n`endif\nend"
        out = preprocess(src)
        assert "yes" not in out

    def test_unmatched_else(self):
        with pytest.raises(PreprocessorError, match="unmatched `else"):
            preprocess("`else")

    def test_unmatched_endif(self):
        with pytest.raises(PreprocessorError, match="unmatched `endif"):
            preprocess("`endif")

    def test_unterminated_ifdef(self):
        with pytest.raises(PreprocessorError, match="unterminated"):
            preprocess("`ifdef A\nx")


class TestInclude:
    def test_include_resolves_relative(self, tmp_path):
        (tmp_path / "widths.vh").write_text("`define W 32\n")
        top = tmp_path / "top.v"
        top.write_text('`include "widths.vh"\nwire [`W-1:0] bus;\n')
        out = preprocess(top.read_text(), _origin=top)
        assert "wire [32-1:0] bus;" in out

    def test_include_search_paths(self, tmp_path):
        inc_dir = tmp_path / "inc"
        inc_dir.mkdir()
        (inc_dir / "common.vh").write_text("`define OK 1\n")
        out = preprocess('`include "common.vh"\n`OK',
                         include_paths=[str(inc_dir)])
        assert out.strip().endswith("1")

    def test_missing_include(self):
        with pytest.raises(PreprocessorError, match="cannot find include"):
            preprocess('`include "nothing.vh"')

    def test_circular_include(self, tmp_path):
        a = tmp_path / "a.vh"
        b = tmp_path / "b.vh"
        a.write_text('`include "b.vh"\n')
        b.write_text('`include "a.vh"\n')
        with pytest.raises(PreprocessorError, match="circular"):
            preprocess(a.read_text(), _origin=a)


class TestEndToEnd:
    def test_parameterized_design_via_macros(self):
        src = """
        `define WIDTH 16
        module m(input clk, input [`WIDTH-1:0] a, input [`WIDTH-1:0] b,
                 output [`WIDTH-1:0] y);
          reg [`WIDTH-1:0] acc;
          always @(posedge clk) acc <= acc + a * b;
          assign y = acc;
        endmodule
        """
        counts = elaborate_source(src).token_counts()
        assert counts["dff16"] == 1
        assert counts["mul32"] == 1

    def test_ifdef_selects_implementation(self):
        src = """
        module m(input [7:0] a, input [7:0] b, input clk, output [15:0] y);
          reg [15:0] r;
        `ifdef USE_MUL
          always @(posedge clk) r <= a * b;
        `else
          always @(posedge clk) r <= a + b;
        `endif
          assign y = r;
        endmodule
        """
        plain = elaborate_source(src).token_counts()
        with_mul = elaborate_source(src, defines={"USE_MUL": "1"}).token_counts()
        assert "mul16" not in plain and plain["add8"] == 1
        assert with_mul["mul16"] == 1


class TestComments:
    def test_macro_in_line_comment_left_alone(self):
        src = "module m; // see `FOO\nendmodule"
        assert preprocess(src) == src

    def test_directive_in_block_comment_left_alone(self):
        assert preprocess("/* `ifdef X */") == "/* `ifdef X */"

    def test_directives_in_multiline_comment_left_alone(self):
        src = "/*\n`ifdef X\n  `GHOST\n`endif */\nmodule m; endmodule"
        assert preprocess(src) == src

    def test_code_around_comments_still_expands(self):
        out = preprocess("`define W 8\n/* `W */ wire [`W-1:0] x; // `W")
        assert out.splitlines()[1] == "/* `W */ wire [8-1:0] x; // `W"

    def test_comment_is_not_part_of_a_define(self):
        out = preprocess("`define W 16 // the width\nwire [`W-1:0] x;")
        assert "wire [16-1:0] x;" in out

    def test_comment_opened_on_a_directive_line(self):
        src = "`define W 4 /* opens here\n`ifdef NOPE */ wire [`W:0] x;"
        assert [t.text for t in tokenize(preprocess(src))][:-1] == [
            "wire", "[", "4", ":", "0", "]", "x", ";"]

    def test_comment_in_untaken_branch(self):
        src = "`ifdef NOPE\nskipped /* `GHOST\n`endif */ still skipped\n`endif\nkept"
        out = preprocess(src)
        assert [t.text for t in tokenize(out)][:-1] == ["kept"]

    def test_commented_design_elaborates(self):
        src = """
        `define W 8
        // a `W-bit incrementer; see `DOC
        module m(input [`W-1:0] a, output [`W-1:0] y); /* `ifdef OLD
          `GHOST `endif */
          assign y = a + 1;  // `W bits
        endmodule
        """
        assert elaborate_source(src).token_counts()["add8"] == 1


class TestLineNumbers:
    def test_directive_lines_keep_their_place(self):
        src = "`define W 8\n`ifdef NOPE\nx\n`endif\nmodule m;\n@@\nendmodule"
        with pytest.raises(VerilogSyntaxError, match="line 6"):
            parse_source(preprocess(src))
