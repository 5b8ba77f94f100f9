"""Verilog emission: GraphIR -> synthesizable Verilog text.

The inverse of the front-end: any circuit graph (hand-built, DSL-built,
or parsed) can be exported as a Verilog module.  Round-tripping through
``elaborate_source(emit_verilog(graph))`` preserves the vocabulary-token
histogram, which the test suite checks property-style.

Conventions:

- every vertex drives one net, named ``n<id>``;
- ``io`` vertices without predecessors become input ports, with
  predecessors output ports;
- ``dff`` vertices become clocked always blocks (a ``clk`` input is added);
- vertices with fewer inputs than their natural arity are padded with
  constants (the front-end folds constants the same way).
"""

from __future__ import annotations

from ..graphir import CompiledGraph

__all__ = ["emit_verilog"]

_BINARY_OPS = {"add": "+", "mul": "*", "div": "/", "mod": "%",
               "and": "&", "or": "|", "xor": "^", "sh": "<<",
               "eq": "==", "lgt": "<"}
_REDUCE_OPS = {"reduce_and": "&", "reduce_or": "|", "reduce_xor": "^"}


def emit_verilog(graph: CompiledGraph, module_name: str | None = None) -> str:
    """Render ``graph`` as a single flat Verilog module."""
    name = module_name or _sanitize(graph.name) or "top"
    types = graph.type_names
    widths = graph.widths.tolist()
    preds = [graph.predecessors(nid) for nid in range(graph.num_nodes)]
    inputs, outputs, regs, combs = [], [], [], []
    for nid, t in enumerate(types):
        if t == "io":
            (outputs if preds[nid] else inputs).append(nid)
        elif t == "dff":
            regs.append(nid)
        else:
            combs.append(nid)

    ports = ["input clk"]
    ports += [f"input [{widths[n] - 1}:0] n{n}" for n in inputs]
    ports += [f"output [{widths[n] - 1}:0] n{n}" for n in outputs]

    lines = [f"module {name}(", "  " + ",\n  ".join(ports), ");"]
    for n in regs:
        lines.append(f"  reg [{widths[n] - 1}:0] n{n};")
    for n in combs:
        lines.append(f"  wire [{widths[n] - 1}:0] n{n};")

    for n in combs:
        lines.append(f"  assign n{n} = {_expr(types[n], widths[n], preds[n])};")
    for n in outputs:
        lines.append(f"  assign n{n} = n{preds[n][0]};")
    for n in regs:
        source = f"n{preds[n][0]}" if preds[n] else f"n{n}"
        lines.append(f"  always @(posedge clk) n{n} <= {source};")
    lines.append("endmodule")
    return "\n".join(lines)


def _slice(name: str, width: int) -> str:
    """Select ``width`` bits of a net, pinning the operand width the
    re-elaborated functional unit will see."""
    return f"{name}[{width - 1}:0]"


def _expr(t: str, w: int, pred_ids: list[int]) -> str:
    preds = [f"n{p}" for p in pred_ids]
    if t == "not":
        return f"~{_slice(preds[0], w)}" if preds else "0"
    if t in _REDUCE_OPS:
        return f"{_REDUCE_OPS[t]}{_slice(preds[0], w)}" if preds else "0"
    if t == "mux":
        # First predecessor is the select by GraphIR convention.
        if len(preds) >= 3:
            return (f"{_slice(preds[0], 1)} ? {_slice(preds[1], w)} "
                    f": {_slice(preds[2], w)}")
        if len(preds) == 2:
            return f"{_slice(preds[0], 1)} ? {_slice(preds[1], w)} : {w}'d0"
        # Degenerate select-only mux: constants carry the vertex width.
        ones = (1 << w) - 1
        return f"{_slice(preds[0], 1)} ? {w}'d{ones} : {w}'d0" if preds else "0"
    if t in _BINARY_OPS:
        op = _BINARY_OPS[t]
        if t == "mul":
            # A W-bit multiplier vertex corresponds to ceil(W/2) x floor(W/2)
            # operands (the front-end sums operand widths).
            w_hi = (w + 1) // 2
            w_lo = w - w_hi
            a = _slice(preds[0], w_hi) if preds else "1'd1"
            b = (_slice(preds[1] if len(preds) > 1 else preds[0], max(w_lo, 1))
                 if preds else "1'd1")
            return f"{a} {op} {b}"
        if len(preds) >= 2:
            return f"{_slice(preds[0], w)} {op} {_slice(preds[1], w)}"
        if len(preds) == 1:
            return f"{_slice(preds[0], w)} {op} 1'd1"
        return "0"
    raise ValueError(f"cannot emit vertex type {t!r}")


def _sanitize(name: str) -> str:
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if out and out[0].isdigit():
        out = "m_" + out
    return out
