"""The circuit builder: turns Signal expressions into GraphIR vertices."""

from __future__ import annotations

from ..graphir import CompiledGraph, GraphBuilder
from .signal import Operand, Signal

__all__ = ["Circuit", "Reg"]


class Reg(Signal):
    """A declared register whose input is connected later (``connect_next``).

    Allows feedback loops: declare the register, use its output in
    expressions, then drive its input.
    """

    __hash__ = Signal.__hash__


class Circuit:
    """Accumulates GraphIR vertices/edges while a design is being built.

    Typical use (inside :meth:`repro.hdl.Module.build`)::

        a = c.input("a", 8)
        b = c.input("b", 8)
        acc = c.reg_declare(16, "acc")
        c.connect_next(acc, a * b + acc)
        c.output("out", acc)
    """

    def __init__(self, name: str = "design"):
        self.graph = GraphBuilder(name)
        self._pending_regs: set[int] = set()

    # ------------------------------------------------------------------ #
    # Ports
    # ------------------------------------------------------------------ #
    def input(self, name: str, width: int) -> Signal:
        """Declare an input port."""
        node_id = self.graph.add_node("io", width, label=name)
        return Signal(self, node_id, width)

    def output(self, name: str, sig: Signal, width: int | None = None) -> Signal:
        """Declare an output port driven by ``sig``."""
        width = width or sig.width
        node_id = self.graph.add_node("io", width, label=name)
        self.graph.add_edge(sig.node_id, node_id)
        return Signal(self, node_id, width)

    # ------------------------------------------------------------------ #
    # Registers
    # ------------------------------------------------------------------ #
    def reg(self, sig: Signal, label: str = "") -> Signal:
        """Register ``sig`` (a pipeline stage); returns the register output."""
        node_id = self.graph.add_node("dff", sig.width, label=label)
        self.graph.add_edge(sig.node_id, node_id)
        return Signal(self, node_id, sig.width)

    def reg_declare(self, width: int, label: str = "") -> Reg:
        """Declare a register with no driver yet (for feedback loops)."""
        node_id = self.graph.add_node("dff", width, label=label)
        self._pending_regs.add(node_id)
        return Reg(self, node_id, width)

    def connect_next(self, reg: Reg, sig: Signal) -> None:
        """Drive a declared register's next-state input."""
        if reg.node_id not in self._pending_regs:
            raise ValueError("connect_next() target was not created by reg_declare()")
        self.graph.add_edge(sig.node_id, reg.node_id)
        self._pending_regs.discard(reg.node_id)

    # ------------------------------------------------------------------ #
    # Operators (called by Signal dunders)
    # ------------------------------------------------------------------ #
    def binop(self, op: str, a: Signal, b: Operand, width: int,
              node_width: int | None = None) -> Signal:
        """Create a two-operand functional unit; ``b`` may be a constant."""
        self._check_same_circuit(a)
        node_id = self.graph.add_node(op, node_width or max(width, 1))
        self.graph.add_edge(a.node_id, node_id)
        if isinstance(b, Signal):
            self._check_same_circuit(b)
            self.graph.add_edge(b.node_id, node_id)
        return Signal(self, node_id, width)

    def unop(self, op: str, a: Signal, width: int, node_width: int | None = None) -> Signal:
        self._check_same_circuit(a)
        node_id = self.graph.add_node(op, node_width or max(width, 1))
        self.graph.add_edge(a.node_id, node_id)
        return Signal(self, node_id, width)

    def mux(self, sel: Signal, if_true: Signal, if_false: Operand) -> Signal:
        """2:1 multiplexer."""
        self._check_same_circuit(sel)
        self._check_same_circuit(if_true)
        width = if_true.width
        if isinstance(if_false, Signal):
            width = max(width, if_false.width)
        node_id = self.graph.add_node("mux", width)
        self.graph.add_edge(sel.node_id, node_id)
        self.graph.add_edge(if_true.node_id, node_id)
        if isinstance(if_false, Signal):
            self.graph.add_edge(if_false.node_id, node_id)
        return Signal(self, node_id, width)

    # ------------------------------------------------------------------ #
    def finalize(self) -> CompiledGraph:
        """Return the built graph.

        Registers declared with :meth:`reg_declare` but never driven are
        allowed (they model constant/reset-held registers).
        """
        return self.graph.compile()

    def _check_same_circuit(self, sig: Signal) -> None:
        if sig.circuit is not self:
            raise ValueError("signal belongs to a different circuit")
