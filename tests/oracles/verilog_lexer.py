"""Per-match reference tokenizer: the parity oracle for ``repro.verilog.lexer``.

One ``finditer`` match and one :class:`~repro.verilog.lexer.Token` per
token, as the front end lexed before it moved to a token stream.  Tests
compare its ``(kind, text, line)`` triples and error messages with
:func:`repro.verilog.lexer.tokenize`.
"""

from __future__ import annotations

import re

from repro.verilog.lexer import KEYWORDS, Token, VerilogSyntaxError

__all__ = ["tokenize_reference"]

_TOKEN_SPEC = [
    ("COMMENT", r"//[^\n]*|/\*.*?\*/"),
    ("NUMBER", r"\d+'[bodhBODH][0-9a-fA-F_xXzZ?]+|\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_$]*"),
    ("OP", r"<=|>=|==|!=|<<|>>|&&|\|\||[-+*/%&|^~!<>=?:#.@(){}\[\],;]"),
    ("WS", r"\s+"),
    ("BAD", r"."),
]
_MASTER = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC),
                     re.DOTALL)


def tokenize_reference(source: str) -> list[Token]:
    """Tokenize Verilog source; comments and whitespace are dropped."""
    tokens: list[Token] = []
    line = 1
    for match in _MASTER.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind in ("WS", "COMMENT"):
            line += text.count("\n")
            continue
        if kind == "BAD":
            raise VerilogSyntaxError(f"unexpected character {text!r} at line {line}")
        if kind == "IDENT" and text in KEYWORDS:
            kind = "KEYWORD"
        tokens.append(Token(kind, text, line))
        line += text.count("\n")
    tokens.append(Token("EOF", "", line))
    return tokens
