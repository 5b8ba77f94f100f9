"""Backward retiming: move registers across logic to balance stage delays.

A simplified Leiserson–Saxe style pass.  A register whose arrival sets
the critical period, and whose single driver is a combinational cell
that feeds only that register, can be moved backward across the driver
— one register per driver input — shortening the launch-to-capture path
by the driver's delay at the cost of (possibly) more register bits:

    X ---> C ---> R ---> ...      becomes      X ---> R' ---> C ---> ...

The pass is cost-guarded: a move is kept only if it reduces the overall
critical period (recomputed with full STA), otherwise it is rolled back.
Opt-in (not part of the default `Synthesizer` flow) so baseline results
stay comparable; pipeline-heavy designs gain the most.
"""

from __future__ import annotations

from .library import TechLibrary
from .netlist import MappedNetlist
from .timing import static_timing_analysis

__all__ = ["retime_backward"]


def retime_backward(net: MappedNetlist, library: TechLibrary,
                    max_moves: int = 16) -> int:
    """Apply up to ``max_moves`` beneficial backward register moves.

    Returns the number of moves kept.
    """
    moves = 0
    for _ in range(max_moves):
        report = static_timing_analysis(net, library)
        if len(report.critical_cells) < 2:
            break
        candidate = _find_candidate(net, report)
        if candidate is None:
            break
        reg_id, driver_id = candidate
        undo = _move_register_backward(net, reg_id, driver_id)
        after = static_timing_analysis(net, library)
        if after.critical_path_ps < report.critical_path_ps - 1e-9:
            moves += 1
        else:
            undo()
            break
    return moves


def _find_candidate(net: MappedNetlist, report) -> tuple[int, int] | None:
    """The critical endpoint register + its movable single driver."""
    chain = report.critical_cells
    endpoint = chain[-1]
    cell = net.cells.get(endpoint)
    if cell is None or cell.cell_type != "dff":
        return None
    preds = list(net.pred[endpoint])
    if len(preds) != 1:
        return None
    driver = net.cells.get(preds[0])
    if driver is None or driver.is_sequential or driver.cell_type == "io":
        return None
    # The driver must feed only this register, or duplicating logic
    # would be required (out of scope for the simplified pass).
    if net.succ[preds[0]] != {endpoint}:
        return None
    if not net.pred[preds[0]]:
        return None  # constant-driven cell; nothing to retime across
    if endpoint in net.pred[preds[0]]:
        # An accumulator: the cell also reads the register it feeds, so
        # the move would wire the cell into its own input, a
        # combinational loop.
        return None
    return endpoint, preds[0]


def _move_register_backward(net: MappedNetlist, reg_id: int, driver_id: int):
    """Rewire X -> C -> R  into  X -> R' -> C -> (R's fanout); returns undo."""
    reg = net.cells[reg_id]
    driver_preds = list(net.pred[driver_id])
    reg_succs = list(net.succ[reg_id])

    new_regs: list[int] = []
    for src in driver_preds:
        new_reg = net.add_cell("dff", net.cells[src].width, is_sequential=True)
        net.remove_edge(src, driver_id)
        net.add_edge(src, new_reg)
        net.add_edge(new_reg, driver_id)
        new_regs.append(new_reg)
    # The driver now feeds the register's old fanout directly.
    net.remove_edge(driver_id, reg_id)
    for dst in reg_succs:
        net.remove_edge(reg_id, dst)
        net.add_edge(driver_id, dst)
    net.remove_cell(reg_id)

    def undo():
        # Recreate the original register and restore the wiring.
        restored = net.add_cell("dff", reg.width, is_sequential=True)
        for dst in reg_succs:
            net.remove_edge(driver_id, dst)
            net.add_edge(restored, dst)
        net.add_edge(driver_id, restored)
        for src, new_reg in zip(driver_preds, new_regs):
            net.remove_edge(src, new_reg)
            net.remove_edge(new_reg, driver_id)
            net.remove_cell(new_reg)
            net.add_edge(src, driver_id)

    return undo
