"""Recursive-descent parser for the supported Verilog subset.

Supported constructs: module definitions with ANSI or non-ANSI ports,
``parameter``/``localparam``, ``wire``/``reg`` declarations with ranges,
continuous ``assign``, ``always @(posedge clk)`` blocks of non-blocking
assignments, module instantiation with parameter overrides, and the
usual expression operators (including ``?:``, bit/part selects, concat,
and unary reductions).
"""

from __future__ import annotations

from . import ast
from .. import obs
from .lexer import TokenStream, VerilogSyntaxError, parse_number, tokenize

__all__ = ["Parser", "parse_source"]

# Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_EXPR_END = frozenset({"]", ":", ";", ")", ",", "}"})


class Parser:
    def __init__(self, tokens: TokenStream):
        self._tokens = tokens  # its lines are counted only for error messages
        self._kinds, self._texts = tokens.kinds, tokens.texts
        self._pos = 0

    # ------------------------------------------------------------------ #
    # Token plumbing.  ``_pos`` never passes the final EOF token: nothing
    # expects or accepts its kind or its empty text.
    # ------------------------------------------------------------------ #
    def _peek(self) -> str:
        return self._texts[self._pos]

    def _advance(self) -> str:
        pos = self._pos
        if self._kinds[pos] != "EOF":
            self._pos = pos + 1
        return self._texts[pos]

    def _expect(self, text: str | None = None, kind: str | None = None) -> str:
        pos = self._pos
        found = self._texts[pos]
        if text is not None and found != text:
            raise VerilogSyntaxError(
                f"expected {text!r} but found {found!r} at line {self._tokens.lines[pos]}")
        if kind is not None and self._kinds[pos] != kind:
            raise VerilogSyntaxError(
                f"expected {kind} but found {self._kinds[pos]} ({found!r}) "
                f"at line {self._tokens.lines[pos]}")
        self._pos = pos + 1
        return found

    def _accept(self, text: str) -> bool:
        if self._texts[self._pos] == text:
            self._pos += 1
            return True
        return False

    def _number(self, pos: int) -> ast.Number:
        try:
            return ast.Number(*parse_number(self._texts[pos]))
        except VerilogSyntaxError as exc:
            raise VerilogSyntaxError(f"{exc} at line {self._tokens.lines[pos]}") from None

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #
    def parse(self) -> ast.SourceFile:
        source = ast.SourceFile()
        while self._kinds[self._pos] != "EOF":
            module = self._parse_module()
            source.modules[module.name] = module
        return source

    def _parse_module(self) -> ast.ModuleDef:
        self._expect("module")
        name = self._expect(kind="IDENT")
        module = ast.ModuleDef(name)
        if self._accept("#"):
            self._parse_param_list(module)
        if self._accept("("):
            self._parse_port_list(module)
        self._expect(";")
        while not self._accept("endmodule"):
            self._parse_module_item(module)
        return module

    def _parse_param_list(self, module: ast.ModuleDef) -> None:
        self._expect("(")
        while True:
            self._expect("parameter")
            name = self._expect(kind="IDENT")
            self._expect("=")
            module.params.append(ast.ParamDecl(name, self._parse_expr()))
            if not self._accept(","):
                break
        self._expect(")")

    def _parse_port_list(self, module: ast.ModuleDef) -> None:
        if self._accept(")"):
            return
        while True:
            if self._peek() in ("input", "output", "inout"):
                module.ports.append(self._parse_ansi_port())
            else:
                # Non-ANSI style: bare names; directions come later.
                name = self._expect(kind="IDENT")
                module.ports.append(ast.PortDecl("inout", name, None, None))
            if not self._accept(","):
                break
        self._expect(")")

    def _parse_ansi_port(self) -> ast.PortDecl:
        direction = self._advance()
        is_reg = self._accept("reg")
        self._accept("wire")
        msb = lsb = None
        if self._accept("["):
            msb = self._parse_expr()
            self._expect(":")
            lsb = self._parse_expr()
            self._expect("]")
        name = self._expect(kind="IDENT")
        return ast.PortDecl(direction, name, msb, lsb, is_reg)

    # ------------------------------------------------------------------ #
    # Module items
    # ------------------------------------------------------------------ #
    def _parse_module_item(self, module: ast.ModuleDef) -> None:
        text = self._peek()
        if text in ("input", "output", "inout"):
            self._parse_nonansi_port_decl(module)
        elif text == "genvar":
            self._advance()
            self._expect(kind="IDENT")
            while self._accept(","):
                self._expect(kind="IDENT")
            self._expect(";")
        elif text == "generate":
            self._parse_generate(module)
        elif text in ("wire", "reg", "integer"):
            self._parse_net_decl(module)
        elif text in ("parameter", "localparam"):
            self._advance()
            name = self._expect(kind="IDENT")
            self._expect("=")
            module.params.append(ast.ParamDecl(name, self._parse_expr()))
            self._expect(";")
        elif text == "assign":
            self._parse_assign(module)
        elif text == "always":
            self._parse_always(module)
        elif self._kinds[self._pos] == "IDENT":
            self._parse_instance(module)
        else:
            raise VerilogSyntaxError(
                f"unsupported module item {text!r} at line {self._tokens.lines[self._pos]}")

    def _parse_range(self):
        msb = lsb = None
        if self._accept("["):
            msb = self._parse_expr()
            self._expect(":")
            lsb = self._parse_expr()
            self._expect("]")
        return msb, lsb

    def _parse_nonansi_port_decl(self, module: ast.ModuleDef) -> None:
        direction = self._advance()
        is_reg = self._accept("reg")
        self._accept("wire")
        msb, lsb = self._parse_range()
        while True:
            name = self._expect(kind="IDENT")
            replaced = False
            for i, port in enumerate(module.ports):
                if port.name == name:
                    module.ports[i] = ast.PortDecl(direction, name, msb, lsb, is_reg)
                    replaced = True
            if not replaced:
                module.ports.append(ast.PortDecl(direction, name, msb, lsb, is_reg))
            if not self._accept(","):
                break
        self._expect(";")

    def _parse_net_decl(self, module: ast.ModuleDef) -> None:
        kind = self._advance()
        if kind == "integer":
            kind = "reg"
        msb, lsb = self._parse_range()
        while True:
            name = self._expect(kind="IDENT")
            module.nets.append(ast.NetDecl(kind, name, msb, lsb))
            if self._accept("="):  # wire w = expr;
                module.assigns.append(
                    ast.ContinuousAssign(name, None, self._parse_expr()))
            if not self._accept(","):
                break
        self._expect(";")

    def _parse_assign(self, module: ast.ModuleDef) -> None:
        self._expect("assign")
        target = self._expect(kind="IDENT")
        select = None
        if self._accept("["):
            msb = self._parse_expr()
            lsb = msb
            if self._accept(":"):
                lsb = self._parse_expr()
            self._expect("]")
            select = (msb, lsb)
        self._expect("=")
        value = self._parse_expr()
        self._expect(";")
        module.assigns.append(ast.ContinuousAssign(target, select, value))

    def _parse_always(self, module: ast.ModuleDef) -> None:
        self._expect("always")
        self._expect("@")
        self._expect("(")
        if self._peek() in ("posedge", "negedge"):
            self._advance()
        clock = self._expect(kind="IDENT")
        self._expect(")")
        statements = self._parse_statement_block()
        module.always_blocks.append(ast.AlwaysBlock(clock, statements))

    def _parse_statement_block(self) -> tuple:
        """One statement, or a begin..end group of statements."""
        if self._accept("begin"):
            stmts = []
            while not self._accept("end"):
                stmts.extend(self._parse_statement_block())
            return tuple(stmts)
        return (self._parse_statement(),)

    def _parse_statement(self):
        text = self._peek()
        if text == "if":
            return self._parse_if()
        if text == "case":
            return self._parse_case()
        return self._parse_nonblocking()

    def _parse_if(self) -> ast.IfStatement:
        self._expect("if")
        self._expect("(")
        condition = self._parse_expr()
        self._expect(")")
        then_stmts = self._parse_statement_block()
        else_stmts: tuple = ()
        if self._accept("else"):
            else_stmts = self._parse_statement_block()
        return ast.IfStatement(condition, then_stmts, else_stmts)

    def _parse_case(self) -> ast.CaseStatement:
        self._expect("case")
        self._expect("(")
        subject = self._parse_expr()
        self._expect(")")
        items: list[tuple] = []
        while not self._accept("endcase"):
            if self._peek() == "default":
                self._advance()
                self._expect(":")
                items.append((None, self._parse_statement_block()))
            else:
                match = self._parse_expr()
                self._expect(":")
                items.append((match, self._parse_statement_block()))
        return ast.CaseStatement(subject, tuple(items))

    def _parse_nonblocking(self) -> ast.NonBlockingAssign:
        target = self._expect(kind="IDENT")
        self._expect("<=")
        value = self._parse_expr()
        self._expect(";")
        return ast.NonBlockingAssign(target, value)

    def _parse_generate(self, module: ast.ModuleDef) -> None:
        self._expect("generate")
        while not self._accept("endgenerate"):
            module.generates.append(self._parse_generate_for())

    def _parse_generate_for(self) -> ast.GenerateFor:
        self._expect("for")
        self._expect("(")
        genvar = self._expect(kind="IDENT")
        self._expect("=")
        start = self._parse_expr()
        self._expect(";")
        # condition: genvar < limit (the common canonical form)
        cond_var = self._expect(kind="IDENT")
        if cond_var != genvar:
            raise VerilogSyntaxError(
                f"generate condition must test the genvar {genvar!r}")
        self._expect("<")
        limit = self._parse_expr()
        self._expect(";")
        step_var = self._expect(kind="IDENT")
        self._expect("=")
        step_expr = self._parse_expr()
        if step_var != genvar:
            raise VerilogSyntaxError(
                f"generate step must update the genvar {genvar!r}")
        step = (step_expr.right
                if isinstance(step_expr, ast.BinaryOp) and step_expr.op == "+"
                else ast.Number(1))
        self._expect(")")
        self._expect("begin")
        label = ""
        if self._accept(":"):
            label = self._expect(kind="IDENT")
        # Parse body items into a scratch module container.
        scratch = ast.ModuleDef("__generate__")
        while not self._accept("end"):
            self._parse_module_item(scratch)
        if scratch.ports or scratch.params or scratch.generates:
            raise VerilogSyntaxError(
                "unsupported item inside generate block")
        return ast.GenerateFor(
            genvar=genvar, start=start, limit=limit, step=step, label=label,
            nets=tuple(scratch.nets), assigns=tuple(scratch.assigns),
            instances=tuple(scratch.instances),
            always_blocks=tuple(scratch.always_blocks))

    def _parse_instance(self, module: ast.ModuleDef) -> None:
        module_name = self._expect(kind="IDENT")
        params: list[tuple[str, ast.Expr]] = []
        if self._accept("#"):
            self._expect("(")
            params = self._parse_named_connections()
            self._expect(")")
        instance_name = self._expect(kind="IDENT")
        self._expect("(")
        connections: list[tuple[str, ast.Expr]]
        if self._peek() == ".":
            connections = self._parse_named_connections()
        else:
            connections = []
            if self._peek() != ")":
                while True:
                    connections.append(("", self._parse_expr()))
                    if not self._accept(","):
                        break
        self._expect(")")
        self._expect(";")
        module.instances.append(ast.Instance(
            module_name, instance_name, tuple(params), tuple(connections)))

    def _parse_named_connections(self) -> list[tuple[str, ast.Expr]]:
        out: list[tuple[str, ast.Expr]] = []
        while True:
            self._expect(".")
            port = self._expect(kind="IDENT")
            self._expect("(")
            out.append((port, self._parse_expr()))
            self._expect(")")
            if not self._accept(","):
                break
        return out

    # ------------------------------------------------------------------ #
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------ #
    def _parse_expr(self) -> ast.Expr:
        pos = self._pos
        kind = self._kinds[pos]
        if (kind == "IDENT" or kind == "NUMBER") and self._texts[pos + 1] in _EXPR_END:
            # A lone name or number, as every select bound is: the node the
            # precedence climb would return, without the climb.
            self._pos = pos + 1
            return (ast.Identifier(self._texts[pos]) if kind == "IDENT"
                    else self._number(pos))
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        condition = self._parse_binary(1)
        if self._accept("?"):
            if_true = self._parse_ternary()
            self._expect(":")
            if_false = self._parse_ternary()
            return ast.Ternary(condition, if_true, if_false)
        return condition

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op = self._texts[self._pos]
            # '<=' inside an expression context is less-or-equal.
            prec = _BINARY_PRECEDENCE.get(op)
            if prec is None or prec < min_prec:
                return left
            self._pos += 1
            right = self._parse_binary(prec + 1)
            left = ast.BinaryOp(op, left, right)

    def _parse_unary(self) -> ast.Expr:
        text = self._texts[self._pos]
        if text in ("~", "!", "-", "&", "|", "^"):
            self._pos += 1
            return ast.UnaryOp(text, self._parse_unary())
        if text == "+":
            self._pos += 1
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        pos = self._pos
        kind = self._kinds[pos]
        if kind == "NUMBER":
            self._pos = pos + 1
            return self._parse_selects(self._number(pos))
        if kind == "IDENT":
            self._pos = pos + 1
            return self._parse_selects(ast.Identifier(self._texts[pos]))
        if self._accept("("):
            inner = self._parse_expr()
            self._expect(")")
            return self._parse_selects(inner)
        if self._accept("{"):
            parts = [self._parse_expr()]
            while self._accept(","):
                parts.append(self._parse_expr())
            self._expect("}")
            return ast.Concat(tuple(parts))
        raise VerilogSyntaxError(
            f"unexpected token {self._texts[pos]!r} at line {self._tokens.lines[pos]}")

    def _parse_selects(self, base: ast.Expr) -> ast.Expr:
        while self._texts[self._pos] == "[":
            self._pos += 1
            first = self._parse_expr()
            if self._accept(":"):
                second = self._parse_expr()
                self._expect("]")
                base = ast.PartSelect(base, first, second)
            else:
                self._expect("]")
                base = ast.BitSelect(base, first)
        return base


def parse_source(source: str) -> ast.SourceFile:
    """Parse Verilog text into a :class:`~repro.verilog.ast.SourceFile`."""
    with obs.span("verilog.lex"):
        tokens = tokenize(source)
    with obs.span("verilog.parse"):
        return Parser(tokens).parse()
