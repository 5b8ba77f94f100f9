"""Reusable structural generators (the DSL's standard library).

These functions build common datapath structures — adder trees, mux
trees, register files, FIFOs — out of Signal primitives.  They are the
building blocks of the design dataset (`repro.designs`) and the case
studies (`repro.boom`, `repro.diannao`).
"""

from __future__ import annotations

from .circuit import Circuit
from .signal import Signal

__all__ = [
    "adder_tree",
    "mux_tree",
    "reduce_tree",
    "register_file",
    "fifo",
    "counter",
    "shift_register",
    "lfsr",
    "priority_arbiter",
    "pipeline",
    "max_tree",
]


def adder_tree(c: Circuit, inputs: list[Signal]) -> Signal:
    """Balanced binary adder tree; the NFU-2 structure of DianNao."""
    if not inputs:
        raise ValueError("adder_tree needs at least one input")
    level = list(inputs)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(level[i] + level[i + 1])
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def mux_tree(c: Circuit, select: Signal, inputs: list[Signal]) -> Signal:
    """N:1 multiplexer as a balanced tree of 2:1 muxes."""
    if not inputs:
        raise ValueError("mux_tree needs at least one input")
    level = list(inputs)
    bit = 0
    while len(level) > 1:
        sel_bit = (select >> bit).resized(1)
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(c.mux(sel_bit, level[i + 1], level[i]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        bit += 1
    return level[0]


def reduce_tree(c: Circuit, inputs: list[Signal], op: str) -> Signal:
    """Balanced reduction with a binary operator name: 'and' | 'or' | 'xor' | 'add'."""
    import operator as _op

    ops = {"and": _op.and_, "or": _op.or_, "xor": _op.xor, "add": _op.add}
    if op not in ops:
        raise ValueError(f"unsupported reduction op: {op}")
    fn = ops[op]
    level = list(inputs)
    if not level:
        raise ValueError("reduce_tree needs at least one input")
    while len(level) > 1:
        nxt = [fn(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def max_tree(c: Circuit, inputs: list[Signal]) -> Signal:
    """Maximum of N values via compare+mux tree (pooling units)."""
    level = list(inputs)
    if not level:
        raise ValueError("max_tree needs at least one input")
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            a, b = level[i], level[i + 1]
            nxt.append(c.mux(a.gt(b), a, b))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def register_file(c: Circuit, write_data: Signal, write_addr: Signal,
                  read_addr: Signal, depth: int, label: str = "rf") -> Signal:
    """A register file: write-decode into ``depth`` registers, mux-tree read."""
    rows = []
    for i in range(depth):
        sel = write_addr.eq(i)
        row = c.reg_declare(write_data.width, label=f"{label}{i}")
        c.connect_next(row, c.mux(sel, write_data, row))
        rows.append(row)
    return mux_tree(c, read_addr, rows)


def fifo(c: Circuit, data: Signal, depth: int, label: str = "fifo") -> Signal:
    """A shift-register FIFO of ``depth`` stages."""
    sig = data
    for i in range(depth):
        sig = c.reg(sig, label=f"{label}{i}")
    return sig


def counter(c: Circuit, width: int, label: str = "ctr") -> Signal:
    """Free-running counter: ``q' = q + 1``."""
    q = c.reg_declare(width, label=label)
    c.connect_next(q, q + 1)
    return q


def shift_register(c: Circuit, data: Signal, stages: int, label: str = "sr") -> list[Signal]:
    """Tapped shift register; returns all ``stages`` taps."""
    taps = []
    sig = data
    for i in range(stages):
        sig = c.reg(sig, label=f"{label}{i}")
        taps.append(sig)
    return taps


def lfsr(c: Circuit, width: int, label: str = "lfsr") -> Signal:
    """Fibonacci LFSR: feedback = xor of taps, shifted in."""
    state = c.reg_declare(width, label=label)
    feedback = (state >> (width - 1)) ^ state
    c.connect_next(state, (state << 1) ^ feedback.resized(1))
    return state


def priority_arbiter(c: Circuit, requests: list[Signal]) -> list[Signal]:
    """Fixed-priority arbiter; grant[i] = req[i] & ~any(req[<i])."""
    grants = []
    blocked = None
    for req in requests:
        if blocked is None:
            grants.append(req)
            blocked = req
        else:
            grants.append(req & ~blocked)
            blocked = blocked | req
    return grants


def pipeline(c: Circuit, sig: Signal, stages: int, label: str = "pipe") -> Signal:
    """Insert ``stages`` pipeline registers (0 allowed → wire-through)."""
    for i in range(stages):
        sig = c.reg(sig, label=f"{label}{i}")
    return sig
