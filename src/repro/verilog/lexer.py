"""Tokenizer for the supported Verilog-2001 subset.

:func:`tokenize` returns a :class:`TokenStream` of parallel lists, not one
object per token: an emitted design can hold hundreds of thousands of
tokens, and every full garbage collection rescans live objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Token", "TokenStream", "VerilogSyntaxError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "posedge", "negedge", "begin", "end", "if",
    "else", "parameter", "localparam", "integer",
    "generate", "endgenerate", "genvar", "for",
    "case", "endcase", "default",
})

# One match per comment or token: the whitespace before it, then a comment,
# number, identifier, operator or stray character.  Only trailing
# whitespace is left unmatched.
_MASTER = re.compile(
    r"(\s*)(?:(//[^\n]*|/\*.*?\*/)"
    r"|(\d+'[bodhBODH][0-9a-fA-F_xXzZ?]+|\d+)"
    r"|([A-Za-z_][A-Za-z0-9_$]*)"
    r"|(<=|>=|==|!=|<<|>>|&&|\|\||[-+*/%&|^~!<>=?:#.@(){}\[\],;])"
    r"|(\S))", re.DOTALL)


class VerilogSyntaxError(SyntaxError):
    """Raised on malformed input anywhere in the front-end."""


@dataclass(frozen=True)
class Token:
    kind: str           # 'KEYWORD' | 'IDENT' | 'NUMBER' | 'OP' | 'EOF'
    text: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class TokenStream:
    """Parallel token lists ending in EOF; indexing yields :class:`Token`."""

    __slots__ = ("kinds", "texts", "lines")

    def __init__(self, kinds: list[str], texts: list[str], lines: list[int]):
        self.kinds, self.texts, self.lines = kinds, texts, lines

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(Token, self.kinds[index], self.texts[index],
                            self.lines[index]))
        return Token(self.kinds[index], self.texts[index], self.lines[index])

    def __iter__(self):
        return map(Token, self.kinds, self.texts, self.lines)


def tokenize(source: str) -> TokenStream:
    """Tokenize Verilog source; comments and whitespace are dropped."""
    kinds, texts, lines = [], [], []
    line = 1
    for space, comment, number, ident, op, bad in _MASTER.findall(source):
        line += space.count("\n")
        if comment:
            line += comment.count("\n")
            continue
        if not (op or ident or number):
            raise VerilogSyntaxError(f"unexpected character {bad!r} at line {line}")
        kinds.append("OP" if op else "NUMBER" if number
                     else "KEYWORD" if ident in KEYWORDS else "IDENT")
        texts.append(op or ident or number)
        lines.append(line)
    kinds.append("EOF")
    texts.append("")
    lines.append(source.count("\n") + 1)
    return TokenStream(kinds, texts, lines)


def parse_number(text: str, line: int | None = None) -> tuple[int, int | None]:
    """Parse a Verilog literal; returns (value, width or None).

    Digits outside the literal's base (``8'b102``) raise
    :class:`VerilogSyntaxError`, naming ``line`` when given.
    """
    if "'" not in text:
        return int(text), None
    width_str, rest = text.split("'", 1)
    base_char = rest[0].lower()
    digits = rest[1:].replace("_", "").replace("?", "0")
    digits = digits.replace("x", "0").replace("X", "0").replace("z", "0").replace("Z", "0")
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
    try:
        return int(digits, base), int(width_str)
    except ValueError:
        where = "" if line is None else f" at line {line}"
        raise VerilogSyntaxError(
            f"invalid base-{base} literal {text!r}{where}") from None
