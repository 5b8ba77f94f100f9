"""Elaboration: Verilog AST -> GraphIR circuit graph.

Reuses the :class:`repro.hdl.Circuit` builder, so Verilog input and the
Python DSL produce identical GraphIR vocabularies (exactly the role Yosys
plays for SNS: parse + compile into the circuit representation).

Semantic notes (cost-model oriented, like the paper's GraphIR):

- Constant part/bit selects are free re-wirings (no vertex), matching the
  width-rounding philosophy of Section 3.1.
- Dynamic bit selects map to a shifter vertex.
- Concatenation joins its operand cones through an ``or`` vertex (pure
  wiring in real hardware; modeled as the cheapest multi-input vertex
  that preserves path connectivity).
- Every non-blocking assignment target becomes a ``dff`` vertex.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import ast
from .. import obs
from ..graphir import CompiledGraph
from ..hdl import Circuit, Signal
from .parser import parse_source

__all__ = ["ElaborationError", "ElaborationMemo", "elaborate",
           "elaborate_source"]

_MAX_DEPTH = 32


class ElaborationError(ValueError):
    """Raised for semantic errors (undefined names, cycles, bad widths)."""


def _module_def(file: ast.SourceFile, name: str) -> ast.ModuleDef:
    try:
        return file.module(name)
    except KeyError as exc:
        raise ElaborationError(exc.args[0]) from None


def elaborate_source(source: str, top: str | None = None,
                     include_paths: list[str] | None = None,
                     defines: dict[str, str] | None = None, *,
                     memo: "bool | ElaborationMemo" = True) -> CompiledGraph:
    """Parse and elaborate Verilog text; returns the top module's GraphIR.

    Sources containing preprocessor directives (backticks) run through
    the preprocessor first; ``include_paths`` and ``defines`` configure
    it.  ``memo`` is forwarded to :func:`elaborate`.
    """
    if "`" in source or defines:
        from .preprocessor import preprocess

        source = preprocess(source, include_paths=include_paths, defines=defines)
    with _collector_paused():
        file = parse_source(source)
        with obs.span("verilog.elaborate"):
            graph = elaborate(file, top, memo=memo)
        del file  # freed by reference counting while the collector is off
    return graph


# The front end builds no reference cycles (tests/test_verilog_gc.py), so
# reference counting frees everything it drops and the cyclic collector's
# passes over its growing AST find nothing.  The pause is process-wide:
# regions in concurrent threads nest, and the collector comes back on when
# the last one exits, if it was on when the first one entered.
_pause_lock = threading.Lock()
_pause_depth = 0
_pause_resumes = False


@contextmanager
def _collector_paused():
    global _pause_depth, _pause_resumes
    with _pause_lock:
        if _pause_depth == 0:
            _pause_resumes = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_resumes:
                gc.enable()


# ---------------------------------------------------------------------- #
# Instance memoization: repeated (module, parameter binding, port shape)
# instantiations stamp a recorded template instead of re-walking the AST.
# ---------------------------------------------------------------------- #
_UNCACHEABLE = object()


@dataclass
class _InstanceTemplate:
    """Everything one elaborated instance added to the circuit, with node
    ids rebased so it can be replayed at any id offset.

    Edge/output endpoints are encoded as ``offset >= 0`` (instance-local
    node, relative to the instance's first id) or ``-1 - i`` (the node
    bound to external input port ``ext_ports[i]``).  Replaying nodes
    first and then the journal-ordered edges reproduces the fresh
    elaboration node-for-node: ids are assigned in the same order and
    every adjacency list receives its entries in the same order.
    """

    module: object                      # pins the ModuleDef so id() stays unique
    nodes: list[tuple[str, int, str]]   # (type, width, label) in creation order
    edges: list[tuple[int, int]]        # encoded, in journal order
    ext_ports: list[str]                # external index -> input port name
    outputs: dict[str, tuple[int, int]]  # port -> (encoded node, width)
    pending: list[int]                  # reg_declare offsets never driven
    rel_depth: int                      # extra hierarchy depth below the instance


class ElaborationMemo:
    """Shared template store for memoized elaboration.

    One is created per :func:`elaborate` call by default; pass your own
    via ``elaborate(..., memo=memo)`` to reuse templates across calls
    (e.g. a DSE sweep re-elaborating sibling parameterizations).
    """

    def __init__(self):
        self.templates: dict = {}
        self.hits = 0
        self.misses = 0
        self.peak = 0          # deepest scope seen inside the current capture
        self._pins: list = []  # keep keyed ModuleDefs alive (keys use id())


def _instance_key(child_def: ast.ModuleDef, child_params: dict[str, int],
                  inputs: dict[str, Signal | int]):
    """Template key: module identity x parameter binding x input shape.

    The input shape covers each input port's bound width and its alias
    group (which ports share one driving node), or the value of a
    constant tied to the port — the only properties of the instantiating
    context that can influence the child's structure.
    """
    alias: dict[int, int] = {}
    shape = []
    for port in child_def.ports:
        if port.direction != "input":
            continue
        sig = inputs.get(port.name)
        if sig is None:
            shape.append((port.name, None, None))
        elif isinstance(sig, int):
            shape.append((port.name, "const", sig))
        else:
            group = alias.setdefault(sig.node_id, len(alias))
            shape.append((port.name, sig.width, group))
    return (id(child_def), tuple(sorted(child_params.items())), tuple(shape))


def _capture_instance(graph, start: int, mark: int,
                      inputs: dict[str, Signal | int], child: "_ModuleScope",
                      child_def: ast.ModuleDef, pending_before: set[int],
                      pending_after: set[int], rel_depth: int):
    """Record what one fresh instance elaboration added to the circuit."""
    ext_map: dict[int, int] = {}
    ext_ports: list[str] = []
    for port, sig in inputs.items():
        if isinstance(sig, Signal) and sig.node_id not in ext_map:
            ext_map[sig.node_id] = len(ext_ports)
            ext_ports.append(port)

    def encode(nid: int):
        if nid >= start:
            return nid - start
        idx = ext_map.get(nid)
        return None if idx is None else -1 - idx

    edges = []
    for s, d in graph.edges_since(mark):
        es, ed = encode(s), encode(d)
        if es is None or ed is None:
            return _UNCACHEABLE
        edges.append((es, ed))
    outputs = {}
    for port in child_def.ports:
        if port.direction != "output":
            continue
        sig = child._signals.get(port.name)
        if not isinstance(sig, Signal):
            return _UNCACHEABLE
        enc = encode(sig.node_id)
        if enc is None:
            return _UNCACHEABLE
        outputs[port.name] = (enc, sig.width)
    if pending_before - pending_after:
        return _UNCACHEABLE  # the child touched pre-existing pending regs
    pending = sorted(nid - start for nid in pending_after - pending_before)
    if pending and pending[0] < 0:
        return _UNCACHEABLE
    return _InstanceTemplate(module=child_def, nodes=graph.nodes_since(start),
                             edges=edges, ext_ports=ext_ports,
                             outputs=outputs, pending=pending,
                             rel_depth=rel_depth)


def _stamp_instance(circuit: Circuit, tmpl: _InstanceTemplate,
                    inputs: dict[str, Signal | int]) -> dict[str, Signal]:
    """Replay a template at the circuit's current node offset."""
    graph = circuit.graph
    base = graph.next_node_id
    add_node = graph.add_node
    for node_type, width, label in tmpl.nodes:
        add_node(node_type, width, label)
    if tmpl.pending:
        circuit._pending_regs.update(base + off for off in tmpl.pending)
    ext = [inputs[p].node_id for p in tmpl.ext_ports]
    add_edge = graph.add_edge
    for s, d in tmpl.edges:
        add_edge(base + s if s >= 0 else ext[-1 - s],
                 base + d if d >= 0 else ext[-1 - d])
    return {port: Signal(circuit,
                         base + enc if enc >= 0 else ext[-1 - enc], width)
            for port, (enc, width) in tmpl.outputs.items()}


class _Substituter:
    """Rewrites expressions for one generate iteration: the genvar becomes
    a constant, block-local names get their per-iteration suffix."""

    def __init__(self, genvar: str, value: int, rename: dict[str, str]):
        self.genvar = genvar
        self.value = value
        self.rename = rename

    def expr(self, node):
        if node is None or not isinstance(node, ast.Expr):
            return node
        if isinstance(node, ast.Number):
            return node
        if isinstance(node, ast.Identifier):
            if node.name == self.genvar:
                return ast.Number(self.value)
            if node.name in self.rename:
                return ast.Identifier(self.rename[node.name])
            return node
        if isinstance(node, ast.UnaryOp):
            return ast.UnaryOp(node.op, self.expr(node.operand))
        if isinstance(node, ast.BinaryOp):
            return ast.BinaryOp(node.op, self.expr(node.left), self.expr(node.right))
        if isinstance(node, ast.Ternary):
            return ast.Ternary(self.expr(node.condition),
                               self.expr(node.if_true), self.expr(node.if_false))
        if isinstance(node, ast.BitSelect):
            return ast.BitSelect(self.expr(node.base), self.expr(node.index))
        if isinstance(node, ast.PartSelect):
            return ast.PartSelect(self.expr(node.base),
                                  self.expr(node.msb), self.expr(node.lsb))
        if isinstance(node, ast.Concat):
            return ast.Concat(tuple(self.expr(p) for p in node.parts))
        raise ElaborationError(
            f"cannot substitute into {type(node).__name__}")


def elaborate(file: ast.SourceFile, top: str | None = None, *,
              memo: bool | ElaborationMemo = True) -> CompiledGraph:
    """Elaborate a parsed source file.

    ``top`` defaults to the unique module that is never instantiated.

    ``memo`` enables instance memoization: each (module, parameter
    binding, input shape) is elaborated once and subsequent occurrences
    stamp the recorded template — node-for-node identical output,
    asserted by the memoization test suite.  Pass an
    :class:`ElaborationMemo` to share templates across calls, or
    ``False`` to force the unmemoized walk.
    """
    if not file.modules:
        raise ElaborationError("no modules in source")
    if top is None:
        instantiated = {inst.module_name
                        for m in file.modules.values() for inst in m.instances}
        instantiated |= {inst.module_name
                         for m in file.modules.values()
                         for gen in m.generates for inst in gen.instances}
        candidates = [name for name in file.modules if name not in instantiated]
        if len(candidates) != 1:
            raise ElaborationError(
                f"cannot infer top module (candidates: {sorted(candidates)}); "
                "pass top= explicitly")
        top = candidates[0]
    module = _module_def(file, top)
    circuit = Circuit(top)
    if isinstance(memo, ElaborationMemo):
        memo_obj: ElaborationMemo | None = memo
    else:
        memo_obj = ElaborationMemo() if memo else None
    scope = _ModuleScope(file, module, circuit, params={}, depth=0,
                         memo=memo_obj)
    scope.elaborate_top()
    return circuit.finalize()


# ---------------------------------------------------------------------- #
class _ModuleScope:
    """Per-instance elaboration state."""

    def __init__(self, file: ast.SourceFile, module: ast.ModuleDef,
                 circuit: Circuit, params: dict[str, int], depth: int,
                 bound_inputs: dict[str, Signal | int] | None = None,
                 memo: ElaborationMemo | None = None):
        if depth > _MAX_DEPTH:
            raise ElaborationError(f"instance hierarchy deeper than {_MAX_DEPTH}")
        self.memo = memo
        if memo is not None and depth > memo.peak:
            memo.peak = depth
        self.file = file
        self.module = module
        self.circuit = circuit
        self.depth = depth
        self.params = dict(params)
        for p in module.params:
            if p.name not in self.params:
                self.params[p.name] = self._const(p.value)
        self.bound_inputs = bound_inputs  # None = top level (create io ports)

        self._signals: dict[str, Signal] = {}
        self._resolving: set[str] = set()

        # Unroll generate blocks into concrete items.
        nets = list(module.nets)
        assigns = list(module.assigns)
        self._instances = list(module.instances)
        always_blocks = list(module.always_blocks)
        for gen in module.generates:
            g_nets, g_assigns, g_insts, g_always = self._unroll(gen)
            nets += g_nets
            assigns += g_assigns
            self._instances += g_insts
            always_blocks += g_always
        self._always_blocks = always_blocks

        # Wires may have several per-bit drivers (generate loops assign
        # slices); drivers of one net are joined like a concatenation.
        self._wire_defs: dict[str, list[ast.ContinuousAssign]] = {}
        for assign in assigns:
            self._wire_defs.setdefault(assign.target, []).append(assign)
        self._reg_targets = {a.target
                             for blk in always_blocks for a in blk.assigns}
        self._widths: dict[str, int] = {}
        for port in module.ports:
            self._widths[port.name] = self._range_width(port.msb, port.lsb)
        for net in nets:
            self._widths[net.name] = self._range_width(net.msb, net.lsb)

    # ------------------------------------------------------------------ #
    # Generate unrolling
    # ------------------------------------------------------------------ #
    _MAX_UNROLL = 4096

    def _unroll(self, gen: ast.GenerateFor):
        """Expand one generate-for into concrete per-iteration items."""
        start = self._const(gen.start)
        limit = self._const(gen.limit)
        step = self._const(gen.step)
        if step <= 0:
            raise ElaborationError(
                f"generate step must be positive in block {gen.label!r}")
        if (limit - start) / step > self._MAX_UNROLL:
            raise ElaborationError(
                f"generate block {gen.label!r} unrolls past {self._MAX_UNROLL}")
        local_names = ({n.name for n in gen.nets}
                       | {i.instance_name for i in gen.instances}
                       | {a.target for blk in gen.always_blocks
                          for a in blk.assigns})
        nets, assigns, instances, always_blocks = [], [], [], []
        value = start
        while value < limit:
            tag = f"{gen.label or 'gen'}_{value}"
            rename = {name: f"{name}__{tag}" for name in local_names}
            sub = _Substituter(gen.genvar, value, rename)
            for net in gen.nets:
                nets.append(ast.NetDecl(net.kind, rename.get(net.name, net.name),
                                        sub.expr(net.msb), sub.expr(net.lsb)))
            for a in gen.assigns:
                assigns.append(ast.ContinuousAssign(
                    rename.get(a.target, a.target),
                    None if a.target_select is None
                    else (sub.expr(a.target_select[0]), sub.expr(a.target_select[1])),
                    sub.expr(a.value)))
            for inst in gen.instances:
                instances.append(ast.Instance(
                    inst.module_name, f"{inst.instance_name}__{tag}",
                    tuple((n, sub.expr(e)) for n, e in inst.param_overrides),
                    tuple((n, sub.expr(e)) for n, e in inst.connections)))
            for blk in gen.always_blocks:
                always_blocks.append(ast.AlwaysBlock(blk.clock, tuple(
                    ast.NonBlockingAssign(rename.get(a.target, a.target),
                                          sub.expr(a.value))
                    for a in blk.assigns)))
            value += step
        return nets, assigns, instances, always_blocks

    # ------------------------------------------------------------------ #
    def elaborate_top(self) -> None:
        # Registers first (they may appear in their own feedback).
        regs = self._declare_registers()
        # Inputs.
        for port in self.module.ports:
            if port.direction == "input":
                if self.bound_inputs is not None:
                    if port.name in self.bound_inputs:
                        value = self.bound_inputs[port.name]
                        if isinstance(value, int):
                            # A tied-off port reads as a constant of the
                            # port's width, folded wherever it is used.
                            value &= (1 << self._widths[port.name]) - 1
                        self._signals[port.name] = value
                    # unconnected inputs are allowed; they become dead cones
                else:
                    self._signals[port.name] = self.circuit.input(
                        port.name, self._widths[port.name])
        # Instances (may define wires used by assigns).
        for inst in self._instances:
            self._elaborate_instance(inst)
        # Register next-state logic.
        for block in self._always_blocks:
            for assign in block.assigns:
                value = self._expr(assign.value)
                self.circuit.connect_next(regs[assign.target],
                                          self._as_signal(value, regs[assign.target].width))
        # Outputs.
        for port in self.module.ports:
            if port.direction != "output":
                continue
            driver = self._resolve(port.name)
            if self.bound_inputs is None:
                self.circuit.output(port.name, self._as_signal(driver, self._widths[port.name]),
                                    width=self._widths[port.name])
            else:
                self._signals[port.name] = self._as_signal(driver, self._widths[port.name])
        # Dead logic: wires never referenced downstream still elaborate
        # (Yosys builds the full netlist before any optimization).
        for name in list(self._wire_defs):
            self._resolve(name)

    def output_signal(self, name: str) -> Signal:
        return self._signals[name]

    # ------------------------------------------------------------------ #
    def _declare_registers(self) -> dict[str, "Signal"]:
        regs = {}
        for name in sorted(self._reg_targets):
            if name not in self._widths:
                raise ElaborationError(
                    f"register {name!r} assigned in always block but never declared")
            reg = self.circuit.reg_declare(self._widths[name], label=name)
            regs[name] = reg
            self._signals[name] = reg
        return regs

    def _elaborate_instance(self, inst: ast.Instance) -> None:
        child_def = _module_def(self.file, inst.module_name)
        child_params = {name: self._const(expr) for name, expr in inst.param_overrides}

        connections = list(inst.connections)
        if connections and connections[0][0] == "":
            port_names = [p.name for p in child_def.ports]
            if len(connections) > len(port_names):
                raise ElaborationError(
                    f"instance {inst.instance_name}: too many positional connections")
            connections = [(port_names[i], expr)
                           for i, (_, expr) in enumerate(connections)]

        inputs: dict[str, Signal | int] = {}
        output_bindings: list[tuple[str, str]] = []
        directions = {p.name: p.direction for p in child_def.ports}
        for port, expr in connections:
            if port not in directions:
                raise ElaborationError(
                    f"instance {inst.instance_name}: no port {port!r} on "
                    f"{inst.module_name}")
            if directions[port] == "input":
                inputs[port] = self._expr(expr)
            else:
                if not isinstance(expr, ast.Identifier):
                    raise ElaborationError(
                        f"instance {inst.instance_name}: output port {port!r} must "
                        "connect to a plain identifier")
                output_bindings.append((port, expr.name))

        outputs = self._instantiate(child_def, child_params, inputs)
        for port, net in output_bindings:
            self._signals[net] = outputs[port]

    def _instantiate(self, child_def: ast.ModuleDef,
                     child_params: dict[str, int],
                     inputs: dict[str, Signal | int]) -> dict[str, Signal]:
        """Elaborate one child instance, stamping a memoized template when
        an identical (module, params, input shape) was elaborated before."""
        memo = self.memo
        if memo is None:
            child = _ModuleScope(self.file, child_def, self.circuit,
                                 params=child_params, depth=self.depth + 1,
                                 bound_inputs=inputs)
            child.elaborate_top()
            return {p.name: child.output_signal(p.name)
                    for p in child_def.ports if p.direction == "output"}

        key = _instance_key(child_def, child_params, inputs)
        tmpl = memo.templates.get(key)
        if isinstance(tmpl, _InstanceTemplate):
            if self.depth + 1 + tmpl.rel_depth <= _MAX_DEPTH:
                memo.hits += 1
                # A stamped subtree still counts toward the enclosing
                # capture's depth.
                if self.depth + 1 + tmpl.rel_depth > memo.peak:
                    memo.peak = self.depth + 1 + tmpl.rel_depth
                return _stamp_instance(self.circuit, tmpl, inputs)
            tmpl = _UNCACHEABLE  # too deep to stamp here; elaborate fresh

        memo.misses += 1
        graph = self.circuit.graph
        start = graph.next_node_id
        mark = graph.edge_mark()
        pending_before = set(self.circuit._pending_regs)
        outer_peak = memo.peak
        memo.peak = self.depth + 1
        child = _ModuleScope(self.file, child_def, self.circuit,
                             params=child_params, depth=self.depth + 1,
                             bound_inputs=inputs, memo=memo)
        child.elaborate_top()
        rel_depth = memo.peak - (self.depth + 1)
        if outer_peak > memo.peak:
            memo.peak = outer_peak
        if tmpl is None:  # first sighting (never overwrite an _UNCACHEABLE mark)
            captured = _capture_instance(
                graph, start, mark, inputs, child, child_def,
                pending_before, self.circuit._pending_regs, rel_depth)
            memo.templates[key] = captured
            memo._pins.append(child_def)
        return {p.name: child.output_signal(p.name)
                for p in child_def.ports if p.direction == "output"}

    # ------------------------------------------------------------------ #
    # Name resolution
    # ------------------------------------------------------------------ #
    def _resolve(self, name: str):
        if name in self._signals:
            return self._signals[name]
        if name in self.params:
            return self.params[name]
        if name in self._wire_defs:
            if name in self._resolving:
                raise ElaborationError(
                    f"combinational loop through {name!r} in {self.module.name}")
            self._resolving.add(name)
            try:
                values = [self._expr(a.value) for a in self._wire_defs[name]]
            finally:
                self._resolving.discard(name)
            signals = [v for v in values if isinstance(v, Signal)]
            if not signals:
                value = values[0]
            else:
                # Multiple per-slice drivers join like a concatenation.
                value = signals[0]
                for sig in signals[1:]:
                    value = value | sig
            if isinstance(value, Signal) and name in self._widths:
                value = value.resized(self._widths[name])
            self._signals[name] = value
            return value
        raise ElaborationError(
            f"undefined name {name!r} in module {self.module.name}")

    # ------------------------------------------------------------------ #
    # Expression elaboration (returns Signal or int constant)
    # ------------------------------------------------------------------ #
    def _expr(self, expr: ast.Expr):
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.Identifier):
            return self._resolve(expr.name)
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._ternary(expr)
        if isinstance(expr, ast.BitSelect):
            return self._bit_select(expr)
        if isinstance(expr, ast.PartSelect):
            return self._part_select(expr)
        if isinstance(expr, ast.Concat):
            return self._concat(expr)
        raise ElaborationError(f"unsupported expression node: {type(expr).__name__}")

    def _unary(self, expr: ast.UnaryOp):
        value = self._expr(expr.operand)
        if isinstance(value, int):
            return {"~": lambda v: ~v, "!": lambda v: int(v == 0),
                    "-": lambda v: -v, "&": lambda v: int(v != 0),
                    "|": lambda v: int(v != 0), "^": lambda v: bin(v).count("1") % 2,
                    }[expr.op](value)
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return value.eq(0)
        if expr.op == "-":
            return 0 - value
        if expr.op == "&":
            return value.reduce_and()
        if expr.op == "|":
            return value.reduce_or()
        if expr.op == "^":
            return value.reduce_xor()
        raise ElaborationError(f"unsupported unary operator {expr.op!r}")

    _CONST_BINOPS = {
        "+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a // max(b, 1),
        "%": lambda a, b: a % max(b, 1),
        "&": lambda a, b: a & b, "|": lambda a, b: a | b, "^": lambda a, b: a ^ b,
        "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
        "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
        "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
        "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
        "&&": lambda a, b: int(bool(a) and bool(b)),
        "||": lambda a, b: int(bool(a) or bool(b)),
    }

    def _binary(self, expr: ast.BinaryOp):
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        if isinstance(left, int) and isinstance(right, int):
            return self._CONST_BINOPS[expr.op](left, right)
        # Normalize so the signal leads (constants fold into the vertex).
        op = expr.op
        if isinstance(left, int):
            left, right = right, left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right
        if op == "%":
            return left % right
        if op in ("&", "&&"):
            return left & right
        if op in ("|", "||"):
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        if op == "==":
            return left.eq(right)
        if op == "!=":
            return ~left.eq(right)
        if op in ("<", "<="):
            return left.lt(right)
        if op in (">", ">="):
            return left.gt(right)
        raise ElaborationError(f"unsupported binary operator {op!r}")

    def _ternary(self, expr: ast.Ternary):
        cond = self._expr(expr.condition)
        if_true = self._expr(expr.if_true)
        if_false = self._expr(expr.if_false)
        if isinstance(cond, int):
            return if_true if cond else if_false
        if isinstance(if_true, Signal):
            return self.circuit.mux(self._as_signal(cond, 1), if_true, if_false)
        if isinstance(if_false, Signal):
            return self.circuit.mux(self._as_signal(cond, 1), if_false, if_true)
        width = max(max(int(if_true), 1).bit_length(), max(int(if_false), 1).bit_length())
        return self.circuit.unop("mux", self._as_signal(cond, 1), max(width, 1))

    def _bit_select(self, expr: ast.BitSelect):
        base = self._expr(expr.base)
        index = self._expr(expr.index)
        if isinstance(base, int):
            if not isinstance(index, int):
                raise ElaborationError("bit select of a constant needs a constant index")
            return (base >> index) & 1
        if isinstance(index, int):
            return base.resized(1)       # static select: pure wiring
        return (base >> index).resized(1)  # dynamic select: shifter vertex

    def _part_select(self, expr: ast.PartSelect):
        base = self._expr(expr.base)
        msb = self._const(expr.msb)
        lsb = self._const(expr.lsb)
        width = abs(msb - lsb) + 1
        if isinstance(base, int):
            return (base >> min(msb, lsb)) & ((1 << width) - 1)
        return base.resized(width)

    def _concat(self, expr: ast.Concat):
        parts = [self._expr(p) for p in expr.parts]
        signals = [p for p in parts if isinstance(p, Signal)]
        total_width = sum(
            p.width if isinstance(p, Signal) else max(int(p).bit_length(), 1)
            for p in parts)
        total_width = max(min(total_width, 64), 1)
        if not signals:
            # all-constant concat folds to a constant
            value = 0
            for p in parts:
                value = (value << max(int(p).bit_length(), 1)) | int(p)
            return value
        joined = signals[0]
        for sig in signals[1:]:
            joined = joined | sig
        return joined.resized(total_width)

    # ------------------------------------------------------------------ #
    def _as_signal(self, value, width: int | None) -> Signal:
        if isinstance(value, Signal):
            return value if width is None else value.resized(width)
        raise ElaborationError(
            f"expected a signal but got constant {value!r} "
            f"(constant-driven output ports/registers are not supported)")

    def _const(self, expr: ast.Expr) -> int:
        value = self._expr_const(expr)
        return value

    def _expr_const(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.Identifier):
            if expr.name in self.params:
                return self.params[expr.name]
            raise ElaborationError(
                f"{expr.name!r} is not a parameter; constant expression required")
        if isinstance(expr, ast.BinaryOp):
            return self._CONST_BINOPS[expr.op](
                self._expr_const(expr.left), self._expr_const(expr.right))
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            return -self._expr_const(expr.operand)
        raise ElaborationError(
            f"cannot evaluate {type(expr).__name__} as a constant")

    def _range_width(self, msb: ast.Expr | None, lsb: ast.Expr | None) -> int:
        if msb is None:
            return 1
        width = abs(self._const(msb) - self._const(lsb)) + 1
        if width < 1:
            raise ElaborationError("declared range has non-positive width")
        return width
