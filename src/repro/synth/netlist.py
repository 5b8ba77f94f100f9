"""Mapped netlists — the synthesizer's mutable working representation.

A :class:`MappedNetlist` starts as a copy of a GraphIR circuit graph and
is transformed in place by optimization passes (CSE, MAC fusion, buffer
insertion, gate sizing).  Unlike the GraphIR seen by SNS, the mapped
netlist keeps *unrounded* widths and may contain cell types (``mac``,
``buf``) that have no GraphIR vocabulary entry — this information
asymmetry is what makes SNS's prediction task non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graphir import CompiledGraph

__all__ = ["MappedCell", "MappedNetlist"]


@dataclass
class MappedCell:
    """One mapped functional unit."""

    cell_id: int
    cell_type: str
    width: int
    # Gate-sizing multipliers (pass-mutable): upsizing trades area for delay.
    delay_scale: float = 1.0
    area_scale: float = 1.0
    is_sequential: bool = False


@dataclass
class MappedNetlist:
    """Cells plus directed connectivity, mutable under optimization passes."""

    name: str = "design"
    cells: dict[int, MappedCell] = field(default_factory=dict)
    succ: dict[int, set[int]] = field(default_factory=dict)
    pred: dict[int, set[int]] = field(default_factory=dict)
    _next_id: int = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_graphir(cls, graph: CompiledGraph) -> "MappedNetlist":
        net = cls(name=graph.name)
        for nid, (cell_type, width, seq) in enumerate(zip(
                graph.type_names, graph.widths.tolist(), graph.is_seq_list)):
            net.cells[nid] = MappedCell(cell_id=nid, cell_type=cell_type,
                                        width=width, is_sequential=seq)
            net.succ[nid] = set()
            net.pred[nid] = set()
        for src, dst in graph.edges():
            net.succ[src].add(dst)
            net.pred[dst].add(src)
        net._next_id = max(net.cells, default=-1) + 1
        return net

    # ------------------------------------------------------------------ #
    def add_cell(self, cell_type: str, width: int, is_sequential: bool = False) -> int:
        cid = self._next_id
        self._next_id += 1
        self.cells[cid] = MappedCell(cid, cell_type, width, is_sequential=is_sequential)
        self.succ[cid] = set()
        self.pred[cid] = set()
        return cid

    def add_edge(self, src: int, dst: int) -> None:
        self.succ[src].add(dst)
        self.pred[dst].add(src)

    def remove_edge(self, src: int, dst: int) -> None:
        self.succ[src].discard(dst)
        self.pred[dst].discard(src)

    def remove_cell(self, cid: int) -> None:
        for s in list(self.succ[cid]):
            self.remove_edge(cid, s)
        for p in list(self.pred[cid]):
            self.remove_edge(p, cid)
        del self.cells[cid], self.succ[cid], self.pred[cid]

    def redirect(self, old: int, new: int) -> None:
        """Move all of ``old``'s fanout onto ``new`` and delete ``old``."""
        for s in list(self.succ[old]):
            self.remove_edge(old, s)
            if s != new:
                self.add_edge(new, s)
        self.remove_cell(old)

    # ------------------------------------------------------------------ #
    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.succ.values())
