"""``repro.hdl`` — a Chisel-like hardware construction DSL.

The SNS paper uses Chisel to produce parameterizable Verilog designs; this
package is the in-repo substitute.  Designs subclass :class:`Module`,
build logic from :class:`Signal` expressions on a :class:`Circuit`, and
elaborate directly to a :class:`repro.graphir.CompiledGraph`.
"""

from .signal import Signal
from .circuit import Circuit, Reg
from .module import Module
from .structures import (
    adder_tree,
    mux_tree,
    reduce_tree,
    max_tree,
    register_file,
    fifo,
    counter,
    shift_register,
    lfsr,
    priority_arbiter,
    pipeline,
)

__all__ = [
    "Signal", "Circuit", "Reg", "Module",
    "adder_tree", "mux_tree", "reduce_tree", "max_tree",
    "register_file", "fifo",
    "counter", "shift_register", "lfsr", "priority_arbiter", "pipeline",
]
