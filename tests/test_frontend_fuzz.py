"""Malformed Verilog through the whole front end ends in a typed error.

Mutants of the Verilog modules written inline in the test suite (the
lexer-oracle test's fragments and mutation strategy, fixed seed and
example budget) go through :func:`repro.runtime.compile_source`: each
must compile, or raise :class:`VerilogSyntaxError`,
:class:`PreprocessorError` or :class:`ElaborationError` — never a raw
``ValueError``, ``KeyError``, ``IndexError`` or ``RecursionError``.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.runtime import compile_source
from repro.verilog import ElaborationError, PreprocessorError, VerilogSyntaxError

from tests.test_verilog_lexer_oracle import FRAGMENTS, INLINE

TYPED = (VerilogSyntaxError, PreprocessorError, ElaborationError)


@seed(20261017)
@settings(max_examples=500, deadline=None, database=None)
@given(st.integers(0, len(INLINE) - 1),
       st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(FRAGMENTS)),
                max_size=6))
def test_mutated_sources_compile_or_raise_typed_errors(index, edits):
    source = INLINE[index]
    for where, fragment in edits:
        pos = where % (len(source) + 1)
        source = source[:pos] + fragment + source[pos:]
    try:
        compile_source(source)
    except TYPED:
        pass


@pytest.mark.parametrize("literal", ["8'b102", "8'd1a", "4'o9"])
def test_bad_sized_literal_is_syntax_error(literal):
    source = ("module m(input [7:0] a, output [7:0] y);\n"
              f"  assign y = a + {literal};\nendmodule\n")
    with pytest.raises(VerilogSyntaxError, match=f"{literal}.* at line 2"):
        compile_source(source)


def test_undefined_module_is_elaboration_error():
    source = ("module m(input [7:0] a, output [7:0] y);\n"
              "  missing u(.a(a), .y(y));\nendmodule\n")
    with pytest.raises(ElaborationError, match="'missing' not defined"):
        compile_source(source)
