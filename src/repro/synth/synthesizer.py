"""The reference synthesizer — this repo's Synopsys Design Compiler stand-in.

``Synthesizer.synthesize`` maps a GraphIR circuit graph to a cell-level
netlist, runs optimization passes (CSE, MAC fusion, buffer insertion),
performs iterative timing-driven gate sizing, and reports area, power,
and timing.  Like the real tool, its runtime grows with design size and
optimization effort — this is what makes the Figure 7 speedup experiment
meaningful.

The netlist compiles once for sizing
(:class:`~repro.synth.timing.CompiledNetlist`): each effort iteration
updates only the per-cell scale vectors and re-sweeps the arrivals.
``synthesize_path_batch`` labels circuit paths for the Circuit Path
Dataset (Table 5) in one shot (:mod:`repro.synth.paths`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..graphir import CompiledGraph
from .library import FREEPDK15, TechLibrary
from .netlist import MappedNetlist
from .passes import buffer_insertion, common_subexpression_elimination, mac_fusion
from .paths import PathResult, synthesize_path_batch
from .power import total_area, total_power
from .timing import CompiledNetlist, TimingReport

__all__ = ["SynthesisResult", "Synthesizer", "EFFORT_PASSES"]

EFFORT_PASSES = {"low": 4, "medium": 12, "high": 30}


@dataclass(frozen=True)
class SynthesisResult:
    """Design-level synthesis outcome (Table 4 row format)."""

    design: str
    timing_ps: float
    area_um2: float
    power_mw: float
    num_cells: int
    gate_count: float
    runtime_s: float

    @property
    def area_mm2(self) -> float:
        return self.area_um2 * 1e-6

    @property
    def frequency_ghz(self) -> float:
        return 1000.0 / self.timing_ps if self.timing_ps > 0 else float("inf")


class Synthesizer:
    """Technology-mapping synthesis estimator.

    Parameters
    ----------
    library:
        The target technology library (defaults to the FreePDK15-like
        library).
    effort:
        'low' | 'medium' | 'high' — number of timing-driven gate-sizing
        iterations, each a full-netlist pass (runtime/quality knob, like
        DC's compile effort).
    """

    def __init__(self, library: TechLibrary | None = None, effort: str = "medium"):
        if effort not in EFFORT_PASSES:
            raise ValueError(f"effort must be one of {sorted(EFFORT_PASSES)}: {effort!r}")
        self.library = library or FREEPDK15
        self.effort = effort

    # ------------------------------------------------------------------ #
    def synthesize(self, graph: CompiledGraph,
                   activity: dict[int, float] | None = None) -> SynthesisResult:
        """Synthesize a design and report area/power/timing.

        ``activity`` optionally maps GraphIR register node ids to activity
        coefficients for power gating (Section 3.4.4 of the paper).
        """
        start = time.perf_counter()
        net = MappedNetlist.from_graphir(graph)

        common_subexpression_elimination(net)
        mac_fusion(net, library=self.library)
        buffer_insertion(net)

        report = self._size_gates(net)

        area = total_area(net, self.library)
        freq = report.max_frequency_ghz if report.critical_path_ps > 0 else 0.0
        power = total_power(net, self.library, freq, activity=activity)
        gates = sum(
            self.library.gate_count(c.cell_type, c.width) for c in net.cells.values()
        )
        runtime = time.perf_counter() - start
        return SynthesisResult(
            design=graph.name,
            timing_ps=report.critical_path_ps,
            area_um2=area,
            power_mw=power,
            num_cells=net.num_cells,
            gate_count=gates,
            runtime_s=runtime,
        )

    # ------------------------------------------------------------------ #
    def _size_gates(self, net: MappedNetlist) -> TimingReport:
        """Iterative timing-driven gate sizing.

        Each iteration runs a full STA, upsizes cells on the critical path
        (faster but larger), and downsizes cells with large slack (smaller
        but slower) — converging toward a balanced design, exactly the
        inner loop that dominates commercial synthesis runtime.

        The netlist compiles once; each iteration updates only the
        ``delay_scale``/``area_scale`` vectors and re-sweeps.  The final
        scales are written back onto the cells so area/power extraction
        sees the sized design.
        """
        comp = CompiledNetlist(net, self.library)
        delay_scale = comp.delay_scales()
        area_scale = comp.area_scales()
        critical, chain, arr = comp.sweep(delay_scale)
        for _ in range(EFFORT_PASSES[self.effort]):
            if not chain:
                break
            crit_mask = np.zeros(comp.num_cells, bool)
            crit_mask[chain] = True
            up = crit_mask & (delay_scale > 0.72)
            improved = bool(up.any())
            # Relax only cells with comfortable slack.
            relax = (~crit_mask) & (delay_scale < 1.15) & (arr < 0.5 * critical)
            delay_scale[up] *= 0.94
            area_scale[up] *= 1.06
            delay_scale[relax] *= 1.02
            area_scale[relax] *= 0.99
            critical, chain, arr = comp.sweep(delay_scale)
            if not improved:
                break
        comp.writeback_scales(delay_scale, area_scale)
        return comp.report(critical, chain, arr)

    # ------------------------------------------------------------------ #
    def synthesize_path_batch(self, paths) -> list[PathResult]:
        """Label token chains (complete circuit paths) — Table 5 rows.

        Each path is synthesized as a standalone chain of functional
        units, including MAC fusion, so the label depends on token
        *order*: the paper's [mul, add] vs [add, mul] example produces
        different timing/area here.
        """
        return synthesize_path_batch(paths, self.library)
