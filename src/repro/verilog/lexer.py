"""Tokenizer for the supported Verilog-2001 subset.

:func:`tokenize` returns a :class:`TokenStream` of parallel lists, not one
object per token: an emitted design can hold hundreds of thousands of
tokens, and every full garbage collection rescans live objects.  Line
numbers are only needed for error messages, so the stream counts them on
first use.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

__all__ = ["Token", "TokenStream", "VerilogSyntaxError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "posedge", "negedge", "begin", "end", "if",
    "else", "parameter", "localparam", "integer",
    "generate", "endgenerate", "genvar", "for",
    "case", "endcase", "default",
})

# One match per comment or token: a comment, number, identifier, operator
# or stray character.  Nothing matches at whitespace, so the scan skips it.
_TOKEN = re.compile(
    r"//[^\n]*|/\*.*?\*/"
    r"|\d+'[bodhBODH][0-9a-fA-F_xXzZ?]+|\d+"
    r"|[A-Za-z_][A-Za-z0-9_$]*"
    r"|<=|>=|==|!=|<<|>>|&&|\|\||[-+*/%&|^~!<>=?:#.@(){}\[\],;]"
    r"|\S", re.DOTALL)

# A token's kind from its whole text (keywords, operators), else from its
# first character.  A longer match starting with '/' is a comment.
_KIND_OF_TEXT = {
    **dict.fromkeys(KEYWORDS, "KEYWORD"),
    **dict.fromkeys(("<=", ">=", "==", "!=", "<<", ">>", "&&", "||",
                     *"-+*/%&|^~!<>=?:#.@(){}[],;"), "OP"),
}
_KIND_OF_FIRST = {**dict.fromkeys(string.ascii_letters + "_", "IDENT"),
                  **dict.fromkeys(string.digits, "NUMBER"), "/": "COMMENT"}


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
    """Parallel token lists ending in EOF; indexing yields :class:`Token`.

    ``lines`` is counted from the source on first use.
    """

    __slots__ = ("kinds", "texts", "_source", "_lines")

    def __init__(self, kinds: list[str], texts: list[str], source: str):
        self.kinds, self.texts, self._source = kinds, texts, source
        self._lines = None

    @property
    def lines(self) -> list[int]:
        if self._lines is None:
            source = self._source
            lines, line, last = [], 1, 0
            for match in _TOKEN.finditer(source):
                start = match.start()
                line += source.count("\n", last, start)
                last = start
                if source[start] != "/" or match.end() - start == 1:
                    lines.append(line)
            lines.append(source.count("\n") + 1)
            self._lines = lines
        return self._lines

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
    texts = _TOKEN.findall(source)
    of_text, of_first = _KIND_OF_TEXT.get, _KIND_OF_FIRST.get
    # \d also matches non-ASCII decimal digits: U+0663 is a NUMBER.
    kinds = [of_text(t) or of_first(t[0])
             or ("NUMBER" if t[0].isdecimal() else "BAD") for t in texts]
    if "COMMENT" in kinds:
        texts = [t for t, k in zip(texts, kinds) if k != "COMMENT"]
        kinds = [k for k in kinds if k != "COMMENT"]
    tokens = TokenStream(kinds, texts, source)
    if "BAD" in kinds:
        i = kinds.index("BAD")
        raise VerilogSyntaxError(
            f"unexpected character {texts[i]!r} at line {tokens.lines[i]}")
    kinds.append("EOF")
    texts.append("")
    return tokens


def parse_number(text: str) -> tuple[int, int | None]:
    """Parse a Verilog literal; returns (value, width or None).

    Digits outside the literal's base (``8'b102``) raise
    :class:`VerilogSyntaxError`.
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
        raise VerilogSyntaxError(f"invalid base-{base} literal {text!r}") from None
