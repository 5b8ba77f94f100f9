"""Netlist optimization passes.

Three classical transforms the Synopsys-DC stand-in applies before cost
extraction:

- **Common subexpression elimination** — sibling cells with identical
  type, width, and fanin are merged (logic sharing).
- **MAC fusion** — a multiplier whose single consumer is an adder fuses
  into one multiply-accumulate cell.  This is the paper's own example of
  order sensitivity: ``[mul, add]`` synthesizes cheaper than ``[add,
  mul]``, which a bag-of-counts model cannot distinguish.
- **Buffer insertion** — cells with large fanout get buffer trees,
  costing area and delay.
"""

from __future__ import annotations

from .library import FREEPDK15
from .netlist import MappedNetlist
from .timing import static_timing_analysis

__all__ = ["common_subexpression_elimination", "mac_fusion", "buffer_insertion"]

MAX_FANOUT = 6


def common_subexpression_elimination(net: MappedNetlist) -> int:
    """Merge duplicate combinational cells; returns cells removed."""
    removed = 0
    changed = True
    while changed:
        changed = False
        seen: dict[tuple, int] = {}
        for cid in list(net.cells):
            cell = net.cells.get(cid)
            if cell is None or cell.is_sequential or cell.cell_type == "io":
                continue
            key = (cell.cell_type, cell.width, tuple(sorted(net.pred[cid])))
            if not key[2]:
                continue  # don't merge source cells
            if key in seen and seen[key] != cid:
                net.redirect(cid, seen[key])
                removed += 1
                changed = True
            else:
                seen[key] = cid
    return removed


def mac_fusion(net: MappedNetlist, library=None) -> int:
    """Fuse mul->add pairs into `mac` cells; returns fusions performed.

    Fusion is cost-guarded like a commercial tool's:

    - **area**: a fused MAC takes the max of the two widths, so fusing a
      narrow multiplier into a wide adder (or vice versa) can cost more
      than the separate cells — such candidates are skipped;
    - **timing** (when a ``library`` is given): the MAC is deeper than
      the adder alone, so a candidate fuses only if the local worst
      arrival does not increase.  Without a library only the area guard
      applies — adequate for linear path labeling, where every input
      enters through the multiplier.

    The timing guard reads the arrivals of the netlist as it entered the
    pass.  One STA computes them when the first candidate reaches the
    guard: nothing can have fused before that point, and a netlist with
    no such candidate needs no STA at all.
    """
    cost_lib = library or FREEPDK15
    arrival = None

    fused = 0
    for cid in list(net.cells):
        cell = net.cells.get(cid)
        if cell is None or cell.cell_type != "mul":
            continue
        succs = net.succ[cid]
        if len(succs) != 1:
            continue
        add_id = next(iter(succs))
        consumer = net.cells.get(add_id)
        if consumer is None or consumer.cell_type != "add":
            continue
        mac_width = max(consumer.width, cell.width)

        # Area guard: skip width-mismatched candidates that would grow.
        if (cost_lib.cost("mac", mac_width).area >
                cost_lib.cost("mul", cell.width).area
                + cost_lib.cost("add", consumer.width).area + 1e-12):
            continue

        if library is not None:
            if arrival is None:
                arrival = static_timing_analysis(net, library).arrival
            mul_cost = library.cost("mul", cell.width)
            add_cost = library.cost("add", consumer.width)
            mac_cost = library.cost("mac", mac_width)
            arr_mul_side = max((arrival.get(p, 0.0) for p in net.pred[cid]),
                               default=0.0)
            arr_other = max((arrival.get(p, 0.0) for p in net.pred[add_id]
                             if p != cid), default=0.0)
            before = max(arr_other + add_cost.delay,
                         arr_mul_side + mul_cost.delay + add_cost.delay)
            after = max(arr_other, arr_mul_side) + mac_cost.delay
            if after > before + 1e-9:
                continue

        # Fuse: the adder becomes a mac; the multiplier's fanin moves to it.
        consumer.cell_type = "mac"
        consumer.width = mac_width
        for p in list(net.pred[cid]):
            net.remove_edge(p, cid)
            net.add_edge(p, add_id)
        net.remove_cell(cid)
        fused += 1
    return fused


def buffer_insertion(net: MappedNetlist) -> int:
    """Split fanout above MAX_FANOUT with buffer cells; returns buffers added."""
    added = 0
    for cid in list(net.cells):
        if cid not in net.cells:
            continue
        fanout = list(net.succ[cid])
        while len(fanout) > MAX_FANOUT:
            # Move one buffer's worth of sinks behind a buffer cell.
            group, fanout = fanout[:MAX_FANOUT], fanout[MAX_FANOUT:]
            buf = net.add_cell("buf", net.cells[cid].width)
            for dst in group:
                net.remove_edge(cid, dst)
                net.add_edge(buf, dst)
            net.add_edge(cid, buf)
            fanout.append(buf)
            added += 1
    return added
