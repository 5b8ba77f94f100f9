"""Module base class — the unit of design reuse in the HDL DSL."""

from __future__ import annotations

from ..graphir import CompiledGraph
from .circuit import Circuit

__all__ = ["Module"]


class Module:
    """A parameterizable hardware design.

    Subclasses implement :meth:`build`, constructing logic on the supplied
    :class:`Circuit`.  Constructor keyword arguments become design
    parameters and are reflected in the elaborated design name so that
    parameter sweeps yield distinguishable designs.

    Example::

        class Mac(Module):
            def __init__(self, width=8):
                super().__init__(width=width)

            def build(self, c):
                a, b = c.input("a", self.params["width"]), c.input("b", self.params["width"])
                acc = c.reg_declare(2 * self.params["width"], "acc")
                c.connect_next(acc, a * b + acc)
                c.output("out", acc)

        graph = Mac(width=16).elaborate()
    """

    def __init__(self, **params):
        self.params = dict(params)

    # ------------------------------------------------------------------ #
    @property
    def design_name(self) -> str:
        base = type(self).__name__.lower()
        if not self.params:
            return base
        args = "_".join(f"{k}{v}" for k, v in sorted(self.params.items()))
        return f"{base}_{args}"

    def build(self, c: Circuit) -> None:
        raise NotImplementedError(f"{type(self).__name__} must implement build()")

    def elaborate(self) -> CompiledGraph:
        """Build the design and return its GraphIR."""
        c = Circuit(self.design_name)
        self.build(c)
        return c.finalize()

    # The name the end-to-end benchmark's workloads and tracer use.
    elaborate_compiled = elaborate
