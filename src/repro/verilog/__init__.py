"""``repro.verilog`` — a Verilog-subset front-end (the Yosys substitute).

SNS accepts HDL source; the paper compiles it with Yosys into its circuit
representation.  This package parses a practical Verilog-2001 subset
(modules, parameters, wires/regs, continuous assigns, clocked always
blocks, instantiation, the standard expression operators) and elaborates
it to the same GraphIR the Python DSL produces.

>>> from repro.verilog import elaborate_source
>>> graph = elaborate_source('''
... module mac(input [7:0] a, input [7:0] b, input clk, output [15:0] y);
...   reg [15:0] acc;
...   always @(posedge clk) acc <= acc + a * b;
...   assign y = acc;
... endmodule
... ''')
>>> sorted(graph.token_list)[:2]
['add16', 'dff16']
"""

from .lexer import Token, VerilogSyntaxError, tokenize
from .parser import Parser, parse_source
from .elaborator import ElaborationError, elaborate, elaborate_source
from .emitter import emit_verilog
from .preprocessor import preprocess, PreprocessorError
from . import ast

__all__ = [
    "Token", "VerilogSyntaxError", "tokenize",
    "Parser", "parse_source",
    "ElaborationError", "elaborate", "elaborate_source",
    "emit_verilog",
    "preprocess", "PreprocessorError",
    "ast",
]
