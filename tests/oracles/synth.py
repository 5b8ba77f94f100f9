"""The per-cell reference synthesizer: the parity oracle for ``repro.synth``.

The dict-walk implementations that the compiled kernels replaced, kept
verbatim:

- :func:`reference_sta` walks the netlist cell by cell in a
  register-cut topological order (:func:`combinational_topo_order`);
  ``repro.synth.static_timing_analysis`` must match its critical period,
  critical chain and every arrival bit for bit, and raise on the same
  combinational loops.
- :class:`ReferenceSynthesizer` re-runs the STA and rescales cells one
  by one on every gate-sizing iteration, and labels each circuit path
  by building it as a standalone graph (:func:`path_to_graph`) and
  synthesizing that.  :func:`reference_timing` routes the STA callers in
  ``repro.synth`` (the MAC-fusion timing guard, ``analyze`` and
  ``retime_backward``) through :func:`reference_sta`, so
  ``ReferenceSynthesizer.synthesize`` runs no compiled kernel at all.

``benchmarks/test_synth_throughput.py`` also times this oracle as its
baseline.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.graphir import CompiledGraph, GraphBuilder, Vocabulary, parse_token
from repro.synth import (EFFORT_PASSES, MappedNetlist, PathResult, SynthesisResult,
                         Synthesizer, TechLibrary, TimingReport, mac_fusion,
                         total_area, total_power)
from repro.synth import passes as _passes, report as _report, retiming as _retiming

__all__ = ["combinational_topo_order", "reference_sta", "reference_timing",
           "path_to_graph", "ReferenceSynthesizer"]


def combinational_topo_order(net: MappedNetlist) -> list[int]:
    """Topological order treating sequential cells as path boundaries.

    Edges *into* sequential cells are cut (a register launches a new
    timing path), so any legal netlist — where every cycle passes
    through a register — becomes a DAG.  Raises on combinational loops.
    """
    indegree = {}
    for cid, cell in net.cells.items():
        if cell.is_sequential:
            indegree[cid] = 0  # launch point
        else:
            indegree[cid] = len(net.pred[cid])
    order: list[int] = []
    frontier = [cid for cid, deg in indegree.items() if deg == 0]
    while frontier:
        cid = frontier.pop()
        order.append(cid)
        for nxt in net.succ[cid]:
            if net.cells[nxt].is_sequential:
                continue  # cut edge
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                frontier.append(nxt)
    if len(order) != len(net.cells):
        raise ValueError(
            f"combinational loop detected in {net.name!r}: "
            f"{len(net.cells) - len(order)} cells unreachable in topo order"
        )
    return order


def _cell_delay(net: MappedNetlist, library: TechLibrary, cid: int) -> float:
    cell = net.cells[cid]
    return library.cost(cell.cell_type, cell.width).delay * cell.delay_scale


def reference_sta(net: MappedNetlist, library: TechLibrary) -> TimingReport:
    """Longest-path analysis; returns the critical period and path."""
    if not net.cells:
        return TimingReport(0.0, (), {})

    order = combinational_topo_order(net)
    arrival: dict[int, float] = {}
    best_pred: dict[int, int | None] = {}

    for cid in order:
        cell = net.cells[cid]
        own = _cell_delay(net, library, cid)
        if cell.is_sequential:
            # Launch point: register clock-to-q, or port insertion delay.
            arrival[cid] = own
            best_pred[cid] = None
            continue
        preds = net.pred[cid]
        if not preds:
            arrival[cid] = own
            best_pred[cid] = None
            continue
        worst, worst_pred = max(((arrival[p], p) for p in preds), key=lambda t: t[0])
        arrival[cid] = worst + own
        best_pred[cid] = worst_pred

    # Capture: worst arrival into any sequential cell (+ setup) or at any
    # pure-combinational endpoint (output ports are sequential 'io').
    critical = 0.0
    endpoint: int | None = None
    capture_pred: int | None = None
    for cid, cell in net.cells.items():
        if cell.is_sequential:
            for p in net.pred[cid]:
                candidate = arrival[p] + (library.dff_setup if cell.cell_type == "dff" else 0.0)
                if candidate > critical:
                    critical, endpoint, capture_pred = candidate, cid, p
        elif not net.succ[cid]:
            if arrival[cid] > critical:
                critical, endpoint, capture_pred = arrival[cid], cid, best_pred[cid]

    # Degenerate all-register design: period bounded by clk-to-q + setup.
    if endpoint is None:
        critical = max(arrival.values(), default=0.0)

    chain: list[int] = []
    if endpoint is not None:
        chain.append(endpoint)
        cursor = capture_pred
        while cursor is not None:
            chain.append(cursor)
            cursor = best_pred.get(cursor)
        chain.reverse()

    return TimingReport(critical_path_ps=critical, critical_cells=tuple(chain), arrival=arrival)


@contextmanager
def reference_timing():
    """Run the STA callers in ``repro.synth`` on :func:`reference_sta`."""
    modules = (_passes, _report, _retiming)
    saved = [m.static_timing_analysis for m in modules]
    for m in modules:
        m.static_timing_analysis = reference_sta
    try:
        yield
    finally:
        for m, sta in zip(modules, saved):
            m.static_timing_analysis = sta


def path_to_graph(tokens: list[str]) -> CompiledGraph:
    """Build a linear graph from a token chain like ['io8','mul16',...]."""
    if not tokens:
        raise ValueError("a circuit path needs at least one token")
    vocab = Vocabulary.standard()
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


class ReferenceSynthesizer(Synthesizer):
    """``Synthesizer`` with the per-cell sizing loop and per-path labeler."""

    def synthesize(self, graph: CompiledGraph,
                   activity: dict[int, float] | None = None) -> SynthesisResult:
        with reference_timing():
            return super().synthesize(graph, activity)

    def _size_gates(self, net: MappedNetlist) -> TimingReport:
        passes = EFFORT_PASSES[self.effort]
        report = reference_sta(net, self.library)
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
            report = reference_sta(net, self.library)
            if not improved:
                break
        return report

    def synthesize_path(self, tokens: list[str]) -> PathResult:
        """Label one complete circuit path (a token chain) — Table 5 rows."""
        graph = path_to_graph(tokens)
        net = MappedNetlist.from_graphir(graph)
        mac_fusion(net)
        report = reference_sta(net, self.library)
        area = total_area(net, self.library)
        freq = report.max_frequency_ghz if report.critical_path_ps > 0 else 0.0
        power = total_power(net, self.library, freq)
        return PathResult(
            tokens=tuple(tokens),
            timing_ps=report.critical_path_ps,
            area_um2=area,
            power_mw=power,
        )

    def synthesize_path_batch(self, paths) -> list[PathResult]:
        return [self.synthesize_path(list(p)) for p in paths]
