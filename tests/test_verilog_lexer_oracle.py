"""The token-stream lexer against the per-match reference tokenizer.

Both must yield the same ``(kind, text, line)`` triples, or raise
:class:`VerilogSyntaxError` with the same message, on the emitted registry
designs, on every Verilog module written inline in the test suite, on
hand-picked edge cases, and on mutated text (hypothesis, fixed seed and
example budget).
"""

import ast as pyast
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.verilog import VerilogSyntaxError, tokenize

from tests.oracles.verilog_lexer import tokenize_reference


def lexed(lexer, source: str):
    try:
        return [(t.kind, t.text, t.line) for t in lexer(source)]
    except VerilogSyntaxError as exc:
        return f"VerilogSyntaxError: {exc}"


def assert_parity(source: str) -> None:
    assert lexed(tokenize, source) == lexed(tokenize_reference, source)


def inline_sources() -> list[str]:
    """String literals in the test modules that hold a whole module."""
    sources = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in pyast.walk(pyast.parse(path.read_text())):
            if (isinstance(node, pyast.Constant) and isinstance(node.value, str)
                    and "module" in node.value and "endmodule" in node.value):
                sources.append(node.value)
    return sources


INLINE = inline_sources()

EDGE_CASES = {
    "empty": "",
    "whitespace only": "  \n\t \r\n ",
    "block comment spanning lines": "a /* one\ntwo\n\nthree */ b\nc",
    "unterminated block comment": "a /* never closed\nb c",
    "line comment at EOF": "module m; endmodule // no newline",
    "crlf and tabs": "module m;\r\n\twire [3:0]\tx;\r\nendmodule\r\n",
    "trailing whitespace": "a b   \n\n  \t",
    "stray backtick": "module m;\n`bad\nendmodule",
    "stray dollar": "x = $clog2(4);",
    "stray quote": 'x = "str";',
    "adjacent comments": "a//x\n/**/b/*\n*//c",
    "slash star slash": "a /*/ b */ c",
    "numbers": "8'hF_F 4'b10x? 12 0'd7 3'd",
    "unicode whitespace": "a\u00a0b\u2028c\x0bd\x0ce",
    "unicode digit": "\u0663 x",
}

FRAGMENTS = (
    "module", "endmodule", "wire", "n12", "_a$b", "8'hF_F", "4'bx?1z", "42",
    "<=", "==", "||", "&&", "<<", "~", "?", ":", ";", "[", "]", "(", ")",
    "{", "}", ",", ".", "#", "@", " ", "  ", "\t", "\n", "\r\n", "\r",
    "\x0c", "\u00a0", "//", "/*", "*/", "/", "*", "// c\n", "/* c\n c */",
    "`", "$", '"', "'", "\\", "\u00e9",
)


def test_registry_designs(registry_verilog):
    for name, source in registry_verilog.items():
        assert lexed(tokenize, source) == lexed(tokenize_reference, source), name


def test_inline_sources():
    assert len(INLINE) >= 20
    for source in INLINE:
        assert_parity(source)


@pytest.mark.parametrize("source", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases(source):
    assert_parity(source)


@seed(20261016)
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40))
def test_fragment_soup(parts):
    assert_parity("".join(parts))


@seed(20261016)
@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, len(INLINE) - 1),
       st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(FRAGMENTS)),
                max_size=6))
def test_mutated_sources(index, edits):
    source = INLINE[index]
    for where, fragment in edits:
        pos = where % (len(source) + 1)
        source = source[:pos] + fragment + source[pos:]
    assert_parity(source)
