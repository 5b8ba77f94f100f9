"""EDA-style synthesis reports: timing, area, and power breakdowns.

Mirrors the reports a commercial tool prints after compile
(``report_timing``, ``report_area``, ``report_power``): the top-N timing
paths with per-cell delay breakdowns, area by cell category, and power
split into dynamic/leakage per category.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphir import CompiledGraph
from .library import FREEPDK15, TechLibrary
from .netlist import MappedNetlist
from .passes import buffer_insertion, common_subexpression_elimination, mac_fusion
from .power import DEFAULT_COMB_ACTIVITY, DEFAULT_SEQ_ACTIVITY
from .timing import static_timing_analysis

__all__ = ["TimingPath", "AreaLine", "PowerLine", "SynthesisReport", "analyze"]

# Categories used by the area/power breakdowns.
_CATEGORIES = {
    "sequential": ("dff",),
    "arithmetic": ("add", "mul", "div", "mod", "mac"),
    "steering": ("mux", "buf", "sh"),
    "logic": ("and", "or", "xor", "not",
              "reduce_and", "reduce_or", "reduce_xor"),
    "compare": ("eq", "lgt"),
    "io": ("io",),
}
_TYPE_TO_CATEGORY = {t: cat for cat, types in _CATEGORIES.items() for t in types}


@dataclass(frozen=True)
class TimingPath:
    """One report_timing row: a register-to-register path with breakdown."""

    arrival_ps: float
    cells: tuple[tuple[str, int, float], ...]   # (cell_type, width, delay)

    @property
    def depth(self) -> int:
        return len(self.cells)

    def format(self) -> str:
        lines = [f"  path arrival {self.arrival_ps:8.1f} ps "
                 f"({self.depth} cells)"]
        for cell_type, width, delay in self.cells:
            lines.append(f"    {cell_type}{width:<4d} +{delay:7.1f} ps")
        return "\n".join(lines)


@dataclass(frozen=True)
class AreaLine:
    category: str
    cells: int
    area_um2: float
    fraction: float


@dataclass(frozen=True)
class PowerLine:
    category: str
    dynamic_mw: float
    leakage_mw: float

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw


@dataclass(frozen=True)
class SynthesisReport:
    """Full report bundle for one design."""

    design: str
    critical_paths: tuple[TimingPath, ...]
    area_lines: tuple[AreaLine, ...]
    power_lines: tuple[PowerLine, ...]
    total_area_um2: float
    total_power_mw: float
    clock_period_ps: float

    def format(self) -> str:
        out = [f"==== synthesis report: {self.design} ====",
               f"clock period: {self.clock_period_ps:.1f} ps "
               f"({1000.0 / self.clock_period_ps:.3f} GHz)" if self.clock_period_ps
               else "clock period: unconstrained",
               "", f"-- timing ({len(self.critical_paths)} worst paths) --"]
        for path in self.critical_paths:
            out.append(path.format())
        out += ["", "-- area --"]
        for line in self.area_lines:
            out.append(f"  {line.category:<12s} {line.cells:6d} cells "
                       f"{line.area_um2:12.1f} um2  ({line.fraction * 100:5.1f}%)")
        out.append(f"  {'total':<12s} {'':>12s} {self.total_area_um2:12.1f} um2")
        out += ["", "-- power --"]
        for line in self.power_lines:
            out.append(f"  {line.category:<12s} dynamic {line.dynamic_mw:9.4f} mW"
                       f"  leakage {line.leakage_mw:9.4f} mW")
        out.append(f"  {'total':<12s} {self.total_power_mw:9.4f} mW")
        return "\n".join(out)


def analyze(graph: CompiledGraph, library: TechLibrary | None = None,
            num_paths: int = 3,
            activity: dict[int, float] | None = None) -> SynthesisReport:
    """Map + optimize a design and produce the full report bundle."""
    library = library or FREEPDK15
    net = MappedNetlist.from_graphir(graph)
    common_subexpression_elimination(net)
    mac_fusion(net, library=library)
    buffer_insertion(net)

    timing = static_timing_analysis(net, library)
    paths = _worst_paths(net, library, timing, num_paths)
    area_lines, total_area = _area_breakdown(net, library)
    power_lines, total_power = _power_breakdown(
        net, library, timing.max_frequency_ghz if timing.critical_path_ps else 0.0,
        activity or {})
    return SynthesisReport(
        design=graph.name,
        critical_paths=tuple(paths),
        area_lines=tuple(area_lines),
        power_lines=tuple(power_lines),
        total_area_um2=total_area,
        total_power_mw=total_power,
        clock_period_ps=timing.critical_path_ps,
    )


# ---------------------------------------------------------------------- #
def _worst_paths(net: MappedNetlist, library: TechLibrary, timing,
                 num_paths: int) -> list[TimingPath]:
    """Trace back the worst ``num_paths`` endpoint arrivals."""
    # Rank endpoints (sequential inputs / sinks) by arrival.
    endpoint_arrivals: list[tuple[float, int]] = []
    for cid, cell in net.cells.items():
        if cell.is_sequential:
            for p in net.pred[cid]:
                arr = timing.arrival.get(p, 0.0)
                setup = library.dff_setup if cell.cell_type == "dff" else 0.0
                endpoint_arrivals.append((arr + setup, p))
        elif not net.succ[cid]:
            endpoint_arrivals.append((timing.arrival.get(cid, 0.0), cid))
    endpoint_arrivals.sort(reverse=True)

    paths = []
    seen_tails: set[int] = set()
    for arrival, tail in endpoint_arrivals:
        if tail in seen_tails:
            continue
        seen_tails.add(tail)
        chain = _trace_back(net, library, timing, tail)
        paths.append(TimingPath(arrival_ps=arrival, cells=tuple(chain)))
        if len(paths) >= num_paths:
            break
    return paths


def _trace_back(net: MappedNetlist, library: TechLibrary, timing, tail: int):
    """Walk the worst-arrival predecessor chain from ``tail`` to a launch."""
    chain = []
    cursor: int | None = tail
    while cursor is not None:
        cell = net.cells[cursor]
        delay = library.cost(cell.cell_type, cell.width).delay * cell.delay_scale
        chain.append((cell.cell_type, cell.width, delay))
        if cell.is_sequential:
            break
        preds = net.pred[cursor]
        cursor = max(preds, key=lambda p: timing.arrival.get(p, 0.0)) if preds else None
    chain.reverse()
    return chain


def _area_breakdown(net: MappedNetlist, library: TechLibrary):
    sums: dict[str, list] = {cat: [0, 0.0] for cat in _CATEGORIES}
    total = 0.0
    for cell in net.cells.values():
        cat = _TYPE_TO_CATEGORY.get(cell.cell_type, "logic")
        area = library.cost(cell.cell_type, cell.width).area * cell.area_scale
        sums[cat][0] += 1
        sums[cat][1] += area
        total += area
    lines = [AreaLine(cat, count, area, area / total if total else 0.0)
             for cat, (count, area) in sums.items() if count]
    lines.sort(key=lambda l: -l.area_um2)
    return lines, total


def _power_breakdown(net: MappedNetlist, library: TechLibrary,
                     frequency_ghz: float, activity: dict[int, float]):
    sums: dict[str, list] = {cat: [0.0, 0.0] for cat in _CATEGORIES}
    total = 0.0
    for cid, cell in net.cells.items():
        cat = _TYPE_TO_CATEGORY.get(cell.cell_type, "logic")
        cost = library.cost(cell.cell_type, cell.width)
        alpha = (activity.get(cid, DEFAULT_SEQ_ACTIVITY) if cell.is_sequential
                 else DEFAULT_COMB_ACTIVITY)
        dynamic = cost.energy * alpha * frequency_ghz * 1e-3
        leakage = cost.leakage * 1e-6
        sums[cat][0] += dynamic
        sums[cat][1] += leakage
        total += dynamic + leakage
    lines = [PowerLine(cat, dyn, leak)
             for cat, (dyn, leak) in sums.items() if dyn or leak]
    lines.sort(key=lambda l: -l.total_mw)
    return lines, total
