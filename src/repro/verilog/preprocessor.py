"""The Verilog preprocessor: ```define``, ```ifdef``, ```include``.

Runs before the lexer, the way real tools stage compilation.  Supported
directives:

- ```define NAME value`` / ```undef NAME`` — object-like macros
  (function-like macros are rejected with a clear error);
- ```ifdef NAME`` / ```ifndef NAME`` / ```else`` / ```endif`` — may nest;
- ```include "file.v"`` — resolved against the including file's
  directory then the supplied search paths, with cycle detection;
- ```NAME`` — macro expansion (recursively, with self-reference guard).

Directives and macro uses inside ``//`` and ``/* */`` comments are left
as they are; the lexer drops the comments afterwards.
"""

from __future__ import annotations

import re
from pathlib import Path

from .lexer import VerilogSyntaxError

__all__ = ["preprocess", "PreprocessorError"]

_DIRECTIVE = re.compile(r"`(\w+)")
_COMMENT_START = re.compile(r"//|/\*")
_MAX_EXPANSION_DEPTH = 32


class PreprocessorError(VerilogSyntaxError):
    """Raised for malformed directives, missing includes, or macro cycles."""


def preprocess(source: str, include_paths: list[str] | None = None,
               defines: dict[str, str] | None = None,
               _origin: Path | None = None,
               _stack: tuple[Path, ...] = ()) -> str:
    """Expand directives and macros; returns plain Verilog text."""
    state = _State(
        macros=dict(defines or {}),
        include_paths=[Path(p) for p in (include_paths or [])],
    )
    return _process(source, state, _origin, _stack)


class _State:
    def __init__(self, macros: dict[str, str], include_paths: list[Path]):
        self.macros = macros
        self.include_paths = include_paths


def _process(source: str, state: _State, origin: Path | None,
             stack: tuple[Path, ...]) -> str:
    # One output line per source line (an included file's lines go in
    # place of its `include), so lexer line numbers point into the source.
    out_lines: list[str] = []
    # Condition stack entries: (taking, seen_else).
    conditions: list[list[bool]] = []
    in_comment = False   # a /* */ comment is open at the start of the line

    def active() -> bool:
        return all(taking for taking, _ in conditions)

    for lineno, line in enumerate(source.splitlines(), start=1):
        runs, in_comment = _split_comments(line, in_comment)
        code = " ".join(text for is_code, text in runs if is_code).strip()
        # Comments pass through whatever the line holds, so the lexer sees
        # every /* */ span whole; directives and macros in them do nothing.
        out = "".join(text for is_code, text in runs if not is_code)
        match = _DIRECTIVE.match(code)
        name = match.group(1) if match else ""
        rest = code[len(name) + 1:].strip()
        if name == "define":
            if active():
                _handle_define(rest, state, lineno)
        elif name == "undef":
            if active():
                state.macros.pop(rest.split()[0], None)
        elif name in ("ifdef", "ifndef"):
            if not rest:
                raise PreprocessorError(f"`{name} without a macro name "
                                        f"(line {lineno})")
            defined = rest.split()[0] in state.macros
            taking = defined if name == "ifdef" else not defined
            conditions.append([taking, False])
        elif name == "else":
            if not conditions or conditions[-1][1]:
                raise PreprocessorError(f"unmatched `else (line {lineno})")
            conditions[-1][0] = not conditions[-1][0]
            conditions[-1][1] = True
        elif name == "endif":
            if not conditions:
                raise PreprocessorError(f"unmatched `endif (line {lineno})")
            conditions.pop()
        elif name == "include":
            if active():
                out = _handle_include(rest, state, origin, stack, lineno) + "\n" + out
        elif active():
            # Not a directive (an unknown name is a macro use): expand code.
            out = "".join(_expand_macros(text, state, lineno) if is_code else text
                          for is_code, text in runs)
        out_lines.append(out)
    if conditions:
        raise PreprocessorError("unterminated `ifdef block at end of file")
    return "\n".join(out_lines)


def _split_comments(line: str, in_comment: bool
                    ) -> tuple[list[tuple[bool, str]], bool]:
    """Cut ``line`` into ``(is_code, text)`` runs around its comments.

    ``in_comment`` says a ``/* */`` comment is open at the start of the
    line; the second result says whether one is open at its end.
    """
    runs: list[tuple[bool, str]] = []
    pos = 0
    while pos < len(line):
        if in_comment:
            end = line.find("*/", pos)
            stop = len(line) if end < 0 else end + 2
            runs.append((False, line[pos:stop]))
            in_comment, pos = end < 0, stop
            continue
        match = _COMMENT_START.search(line, pos)
        start = len(line) if match is None else match.start()
        if start > pos:
            runs.append((True, line[pos:start]))
        if match is None:
            break
        if match.group() == "//":
            runs.append((False, line[start:]))
            break
        runs.append((False, "/*"))
        in_comment, pos = True, start + 2
    return runs, in_comment


def _handle_define(rest: str, state: _State, lineno: int) -> None:
    if not rest:
        raise PreprocessorError(f"`define without a macro name (line {lineno})")
    parts = rest.split(None, 1)
    name = parts[0]
    if "(" in name:
        raise PreprocessorError(
            f"function-like macros are not supported: `{name} (line {lineno})")
    state.macros[name] = parts[1].strip() if len(parts) > 1 else "1"


def _handle_include(rest: str, state: _State, origin: Path | None,
                    stack: tuple[Path, ...], lineno: int) -> str:
    match = re.match(r'"([^"]+)"', rest)
    if not match:
        raise PreprocessorError(f'`include expects a quoted path (line {lineno})')
    target = match.group(1)
    candidates = []
    if origin is not None:
        candidates.append(origin.parent / target)
    candidates.extend(base / target for base in state.include_paths)
    candidates.append(Path(target))
    for candidate in candidates:
        if candidate.is_file():
            resolved = candidate.resolve()
            if resolved in stack:
                chain = " -> ".join(str(p) for p in stack + (resolved,))
                raise PreprocessorError(f"circular `include: {chain}")
            text = resolved.read_text()
            return _process(text, state, resolved, stack + (resolved,))
    raise PreprocessorError(
        f"cannot find include file {target!r} (line {lineno}); "
        f"searched {[str(c) for c in candidates]}")


def _expand_macros(line: str, state: _State, lineno: int) -> str:
    depth = 0
    while "`" in line:
        depth += 1
        if depth > _MAX_EXPANSION_DEPTH:
            raise PreprocessorError(
                f"macro expansion too deep (line {lineno}); recursive `define?")
        replaced = False

        def substitute(match: re.Match) -> str:
            nonlocal replaced
            name = match.group(1)
            if name in state.macros:
                replaced = True
                return state.macros[name]
            raise PreprocessorError(
                f"undefined macro `{name} (line {lineno})")

        line = _DIRECTIVE.sub(substitute, line)
        if not replaced:
            break
    return line
