"""The reference synthesizer — this repo's Synopsys Design Compiler stand-in.

``Synthesizer.synthesize`` maps a GraphIR circuit graph to a cell-level
netlist, runs optimization passes (CSE, MAC fusion, buffer insertion),
performs iterative timing-driven gate sizing, and reports area, power,
and timing.  Like the real tool, its runtime grows with design size and
optimization effort — this is what makes the Figure 7 speedup experiment
meaningful.

It also labels individual circuit paths (``synthesize_path``) for the
Circuit Path Dataset (Table 5), and batches of them in one shot
(``synthesize_path_batch``).

Two execution engines produce bit-identical results:

- ``engine="array"`` (default) — the :mod:`repro.synth.engine`
  array-compiled kernel: the netlist is flattened once, STA runs as
  vectorized level sweeps, and the gate-sizing loop is incremental
  (only the ``delay_scale`` vector changes between iterations).
- ``engine="reference"`` — the original per-cell dict walk, kept as the
  parity oracle (the ``train_*_reference`` pattern).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..graphir import CompiledGraph, GraphBuilder, Vocabulary, parse_token
from .library import FREEPDK15, TechLibrary
from .netlist import MappedNetlist
from .passes import buffer_insertion, common_subexpression_elimination, mac_fusion
from .power import total_area, total_power
from .timing import TimingReport, static_timing_analysis

__all__ = ["SynthesisResult", "PathResult", "Synthesizer", "EFFORT_PASSES",
           "SYNTH_ENGINES"]

EFFORT_PASSES = {"low": 4, "medium": 12, "high": 30}
SYNTH_ENGINES = ("array", "reference")


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


@dataclass(frozen=True)
class PathResult:
    """Path-level synthesis outcome (Table 5 row format)."""

    tokens: tuple[str, ...]
    timing_ps: float
    area_um2: float
    power_mw: float


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
    engine:
        'array' (default) runs STA and gate sizing on the vectorized
        :mod:`repro.synth.engine` kernel; 'reference' keeps the original
        per-cell implementation.  Results are bit-identical either way.
    """

    def __init__(self, library: TechLibrary | None = None, effort: str = "medium",
                 engine: str = "array"):
        if effort not in EFFORT_PASSES:
            raise ValueError(f"effort must be one of {sorted(EFFORT_PASSES)}: {effort!r}")
        if engine not in SYNTH_ENGINES:
            raise ValueError(f"engine must be one of {SYNTH_ENGINES}: {engine!r}")
        self.library = library or FREEPDK15
        self.effort = effort
        self.engine = engine

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
        if self.engine == "array":
            from .engine import array_sta

            # The fusion timing guard only reads arrival values, and only
            # for mul->add candidates.  Fusion never creates a candidate
            # that did not exist beforehand (a fused consumer becomes a
            # ``mac``, never an ``add``), so when the pre-scan finds none
            # the STA pass can be skipped outright; otherwise feed the
            # vectorized STA's (identical) arrivals.
            has_candidate = any(
                c.cell_type == "mul" and len(net.succ[cid]) == 1
                and net.cells[next(iter(net.succ[cid]))].cell_type == "add"
                for cid, c in net.cells.items())
            arrival = (array_sta(net, self.library).arrival
                       if has_candidate else {})
            mac_fusion(net, library=self.library, arrival=arrival)
        else:
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

        On the array engine the netlist is compiled once and each
        iteration re-sweeps only the changed ``delay_scale`` vector.
        """
        passes = EFFORT_PASSES[self.effort]
        if self.engine == "array":
            from .engine import size_gates_array

            return size_gates_array(net, self.library, passes)
        report = static_timing_analysis(net, self.library)
        for _ in range(passes):
            if not report.critical_cells:
                break
            critical_set = set(report.critical_cells)
            worst = report.critical_path_ps
            improved = False
            for cid, cell in net.cells.items():
                if cid in critical_set and cell.delay_scale > 0.72:
                    cell.delay_scale *= 0.94
                    cell.area_scale *= 1.06
                    improved = True
                elif cid not in critical_set and cell.delay_scale < 1.15:
                    # Relax only cells with comfortable slack.
                    if report.arrival.get(cid, 0.0) < 0.5 * worst:
                        cell.delay_scale *= 1.02
                        cell.area_scale *= 0.99
            report = static_timing_analysis(net, self.library)
            if not improved:
                break
        return report

    # ------------------------------------------------------------------ #
    def synthesize_path(self, tokens: list[str]) -> PathResult:
        """Label one complete circuit path (a token chain) — Table 5 rows.

        The path is synthesized as a standalone chain of functional units,
        including MAC fusion, so the label depends on token *order*: the
        paper's [mul, add] vs [add, mul] example produces different
        timing/area here.
        """
        graph = path_to_graph(tokens)
        net = MappedNetlist.from_graphir(graph)
        mac_fusion(net)
        report = static_timing_analysis(net, self.library)
        area = total_area(net, self.library)
        freq = report.max_frequency_ghz if report.critical_path_ps > 0 else 0.0
        power = total_power(net, self.library, freq)
        return PathResult(
            tokens=tuple(tokens),
            timing_ps=report.critical_path_ps,
            area_um2=area,
            power_mw=power,
        )

    # ------------------------------------------------------------------ #
    def synthesize_path_batch(self, paths) -> list[PathResult]:
        """Label many token chains at once — bit-identical to calling
        :meth:`synthesize_path` per chain.

        On the array engine, linear chains reduce to closed-form
        cumulative sweeps over precomputed library cost tables with MAC
        fusion applied as a vectorized adjacent-pair rewrite; the
        reference engine loops :meth:`synthesize_path` (parity oracle).
        """
        if self.engine == "array":
            from .engine import synthesize_path_batch

            return synthesize_path_batch(paths, self.library)
        return [self.synthesize_path(list(p)) for p in paths]


def path_to_graph(tokens: list[str]) -> CompiledGraph:
    """Build a linear graph from a token chain like ['io8','mul16',...]."""
    if not tokens:
        raise ValueError("a circuit path needs at least one token")
    vocab = _standard_vocab()
    builder = GraphBuilder("path")
    prev = None
    for token in tokens:
        if token not in vocab:
            raise KeyError(f"token not in vocabulary: {token!r}")
        node_type, width = parse_token(token)
        nid = builder.add_node(node_type, width)
        if prev is not None:
            builder.add_edge(prev, nid)
        prev = nid
    return builder.compile()


def _standard_vocab() -> Vocabulary:
    """Module-cached standard vocabulary — per-path labeling used to
    rebuild all 79 tokens on every call."""
    global _PATH_VOCAB
    if _PATH_VOCAB is None:
        _PATH_VOCAB = Vocabulary.standard()
    return _PATH_VOCAB


_PATH_VOCAB: Vocabulary | None = None
