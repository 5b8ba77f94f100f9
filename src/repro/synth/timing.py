"""Static timing analysis over a mapped netlist.

Paths launch at sequential cells (register clock-to-q) or input ports and
capture at sequential cell inputs (plus setup) or output ports.  The
design's achievable clock period is the worst register-to-register (or
port-to-port) arrival time.

A :class:`~repro.synth.netlist.MappedNetlist` is compiled **once** into
flat numpy form (:class:`CompiledNetlist`) and each analysis is a
vectorized level sweep over it:

- the cell table is int-coded: a base delay vector gathered from the
  :class:`~repro.synth.library.TechLibrary`, a sequential mask, CSR
  predecessor arrays, the combinational topo order partitioned into
  levels, and a flattened capture-candidate list in cell order;
- :meth:`CompiledNetlist.sweep` is one STA as a level-by-level
  ``gather / segmented-max / add`` sweep.  Between gate-sizing
  iterations only the ``delay_scale`` vector changes, so re-running STA
  is incremental: no topo sort, no library calls, no dict traffic.

Ties break the same way everywhere: the first maximum wins, in netlist
dict order for capture candidates and in ``pred`` set iteration order
for the critical-path back-trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .library import TechLibrary
from .netlist import MappedNetlist

__all__ = ["TimingReport", "CompiledNetlist", "static_timing_analysis"]


@dataclass(frozen=True)
class TimingReport:
    """Result of one STA run.

    critical_path_ps is the minimum clock period; critical_cells is the
    launch-to-capture cell chain realizing it.
    """

    critical_path_ps: float
    critical_cells: tuple[int, ...]
    arrival: dict[int, float]

    @property
    def max_frequency_ghz(self) -> float:
        return 1000.0 / self.critical_path_ps if self.critical_path_ps > 0 else float("inf")


@dataclass
class _Level:
    """One topo level: cells plus their predecessor CSR slice."""

    cells: np.ndarray        # cell indices at this level
    flat_preds: np.ndarray   # concatenated predecessor indices
    starts: np.ndarray       # reduceat segment starts into flat_preds


class CompiledNetlist:
    """A :class:`MappedNetlist` flattened into arrays for repeated STA.

    The compile captures everything that is invariant across gate-sizing
    iterations; :meth:`sweep` takes only the per-cell ``delay_scale``
    vector.  Cell order is the netlist dict order, predecessor order is
    each ``pred`` set's iteration order — both frozen at compile time so
    tie-breaks do not depend on the sweep.

    Edges into sequential cells are cut (a register launches a new timing
    path), so any legal netlist — where every cycle passes through a
    register — is a DAG; a combinational loop raises ``ValueError``.
    """

    def __init__(self, net: MappedNetlist, library: TechLibrary):
        self.ids: list[int] = list(net.cells)
        index = {cid: i for i, cid in enumerate(self.ids)}
        cells = [net.cells[cid] for cid in self.ids]
        self.cells = cells
        n = len(cells)
        self.num_cells = n

        self.base_delay = np.array(
            [library.cost(c.cell_type, c.width).delay for c in cells], np.float64)
        self.is_seq = np.array([c.is_sequential for c in cells], bool)
        self.pred_lists: list[list[int]] = [
            [index[p] for p in net.pred[cid]] for cid in self.ids]

        # Longest-path level assignment over the register-cut DAG.
        indeg = [0 if c.is_sequential else len(pl)
                 for c, pl in zip(cells, self.pred_lists)]
        succ_comb: list[list[int]] = [
            [index[s] for s in net.succ[cid] if not net.cells[s].is_sequential]
            for cid in self.ids]
        level = [0] * n
        frontier = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        while frontier:
            i = frontier.pop()
            seen += 1
            li = level[i] + 1
            for j in succ_comb[i]:
                if li > level[j]:
                    level[j] = li
                indeg[j] -= 1
                if indeg[j] == 0:
                    frontier.append(j)
        if seen != n:
            raise ValueError(
                f"combinational loop detected in {net.name!r}: "
                f"{n - seen} cells unreachable in topo order")

        self.levels: list[_Level] = []
        if n:
            by_level: dict[int, list[int]] = {}
            for i, lv in enumerate(level):
                if lv > 0:
                    by_level.setdefault(lv, []).append(i)
            for lv in sorted(by_level):
                members = by_level[lv]
                starts, flat, off = [], [], 0
                for i in members:
                    starts.append(off)
                    flat.extend(self.pred_lists[i])
                    off += len(self.pred_lists[i])
                self.levels.append(_Level(
                    cells=np.asarray(members, np.int64),
                    flat_preds=np.asarray(flat, np.int64),
                    starts=np.asarray(starts, np.int64)))

        # Capture candidates, flattened in evaluation order: cells in
        # dict order; a sequential cell contributes one candidate per
        # predecessor (arrival[p] + setup), a sink combinational cell
        # contributes its own arrival.
        cap_src, cap_add, cap_endpoint, cap_via = [], [], [], []
        for i, (cid, c) in enumerate(zip(self.ids, cells)):
            if c.is_sequential:
                setup = library.dff_setup if c.cell_type == "dff" else 0.0
                for p in self.pred_lists[i]:
                    cap_src.append(p)
                    cap_add.append(setup)
                    cap_endpoint.append(i)
                    cap_via.append(True)
            elif not net.succ[cid]:
                cap_src.append(i)
                cap_add.append(0.0)
                cap_endpoint.append(i)
                cap_via.append(False)
        self.cap_src = np.asarray(cap_src, np.int64)
        self.cap_add = np.asarray(cap_add, np.float64)
        self.cap_endpoint = cap_endpoint
        self.cap_via = cap_via

    # ------------------------------------------------------------------ #
    def delay_scales(self) -> np.ndarray:
        """The current per-cell ``delay_scale`` vector (compile order)."""
        return np.array([c.delay_scale for c in self.cells], np.float64)

    def area_scales(self) -> np.ndarray:
        return np.array([c.area_scale for c in self.cells], np.float64)

    def writeback_scales(self, delay_scale: np.ndarray,
                         area_scale: np.ndarray) -> None:
        """Push sized scale vectors back onto the mutable netlist cells."""
        for i, c in enumerate(self.cells):
            c.delay_scale = float(delay_scale[i])
            c.area_scale = float(area_scale[i])

    # ------------------------------------------------------------------ #
    def _best_pred(self, i: int, arr: np.ndarray) -> int | None:
        """First predecessor realizing the worst arrival."""
        if self.is_seq[i] or not self.pred_lists[i]:
            return None
        preds = self.pred_lists[i]
        best = preds[0]
        worst = arr[best]
        for p in preds[1:]:
            if arr[p] > worst:
                worst = arr[p]
                best = p
        return best

    def sweep(self, delay_scale: np.ndarray
              ) -> tuple[float, list[int], np.ndarray]:
        """One STA pass: ``(critical period, critical index chain, arrival)``.

        Arrival is computed level by level: gather predecessor arrivals,
        segmented max, add each cell's own scaled delay.
        """
        own = self.base_delay * delay_scale
        arr = own.copy()  # level-0 cells: launch points and sources
        for lv in self.levels:
            worst = np.maximum.reduceat(arr[lv.flat_preds], lv.starts)
            arr[lv.cells] = worst + own[lv.cells]

        chain: list[int] = []
        if self.cap_src.size:
            cand = arr[self.cap_src] + self.cap_add
            k = int(np.argmax(cand))  # first max wins
            critical = float(cand[k])
            if critical > 0.0:
                endpoint = self.cap_endpoint[k]
                cursor = (int(self.cap_src[k]) if self.cap_via[k]
                          else self._best_pred(endpoint, arr))
                chain.append(endpoint)
                while cursor is not None:
                    chain.append(cursor)
                    cursor = self._best_pred(cursor, arr)
                chain.reverse()
            else:  # degenerate: no positive candidate
                critical = float(arr.max()) if arr.size else 0.0
        else:
            # All-register design: period bounded by clk-to-q + setup.
            critical = float(arr.max()) if arr.size else 0.0
        return critical, chain, arr

    def report(self, critical: float, chain: list[int],
               arr: np.ndarray) -> TimingReport:
        """A :class:`TimingReport` keyed by cell id for one :meth:`sweep`."""
        return TimingReport(
            critical_path_ps=critical,
            critical_cells=tuple(self.ids[i] for i in chain),
            arrival=dict(zip(self.ids, arr.tolist())),
        )


def static_timing_analysis(net: MappedNetlist, library: TechLibrary) -> TimingReport:
    """Longest-path analysis; returns the critical period and path."""
    comp = CompiledNetlist(net, library)
    return comp.report(*comp.sweep(comp.delay_scales()))
