"""Tests for the EDA-style synthesis report module."""

import numpy as np
import pytest

from repro.designs import GEMMUnit, SodorCore
from repro.synth import Synthesizer, analyze


@pytest.fixture(scope="module")
def sodor_report():
    return analyze(SodorCore(xlen=32).elaborate(), num_paths=3)


class TestTimingReport:
    def test_paths_sorted_worst_first(self, sodor_report):
        arrivals = [p.arrival_ps for p in sodor_report.critical_paths]
        assert arrivals == sorted(arrivals, reverse=True)

    def test_worst_path_matches_clock_period(self, sodor_report):
        assert sodor_report.critical_paths[0].arrival_ps == pytest.approx(
            sodor_report.clock_period_ps, rel=1e-6)

    def test_path_cells_have_positive_delay(self, sodor_report):
        for path in sodor_report.critical_paths:
            assert path.depth >= 1
            for cell_type, width, delay in path.cells:
                assert delay > 0
                assert width >= 1

    def test_requested_path_count(self):
        report = analyze(SodorCore(xlen=32).elaborate(), num_paths=5)
        assert 1 <= len(report.critical_paths) <= 5

    def test_breakdown_sums_near_arrival(self, sodor_report):
        """Per-cell delays along a path sum to (at least) its arrival minus
        setup margin."""
        worst = sodor_report.critical_paths[0]
        total = sum(d for _, _, d in worst.cells)
        assert total <= worst.arrival_ps + 1e-6
        assert total >= 0.5 * worst.arrival_ps  # the chain is the bulk of it


class TestAreaReport:
    def test_fractions_sum_to_one(self, sodor_report):
        assert sum(l.fraction for l in sodor_report.area_lines) == pytest.approx(1.0)

    def test_lines_sorted_by_area(self, sodor_report):
        areas = [l.area_um2 for l in sodor_report.area_lines]
        assert areas == sorted(areas, reverse=True)

    def test_total_matches_synthesizer(self):
        graph = SodorCore(xlen=32).elaborate()
        report = analyze(graph)
        # effort-low synthesizer applies the same passes before sizing.
        result = Synthesizer(effort="low").synthesize(graph)
        # sizing perturbs areas slightly; the mapped totals agree closely
        assert report.total_area_um2 == pytest.approx(result.area_um2, rel=0.2)

    def test_arithmetic_dominates_gemm(self):
        report = analyze(GEMMUnit(rows=4, cols=4, depth=4, width=16).elaborate())
        top = report.area_lines[0]
        assert top.category == "arithmetic"
        assert top.fraction > 0.5


class TestPowerReport:
    def test_power_components_nonnegative(self, sodor_report):
        for line in sodor_report.power_lines:
            assert line.dynamic_mw >= 0
            assert line.leakage_mw >= 0

    def test_total_is_sum_of_lines(self, sodor_report):
        total = sum(l.total_mw for l in sodor_report.power_lines)
        assert total == pytest.approx(sodor_report.total_power_mw, rel=1e-9)

    def test_activity_coefficients_reduce_dynamic(self):
        graph = SodorCore(xlen=32).elaborate()
        base = analyze(graph)
        gated = analyze(graph, activity={nid: 0.0 for nid in np.flatnonzero(graph.is_sequential).tolist()})
        base_seq = next(l for l in base.power_lines if l.category == "sequential")
        gated_seq = next(l for l in gated.power_lines if l.category == "sequential")
        assert gated_seq.dynamic_mw < base_seq.dynamic_mw


class TestFormatting:
    def test_format_contains_sections(self, sodor_report):
        text = sodor_report.format()
        assert "-- timing" in text
        assert "-- area --" in text
        assert "-- power --" in text
        assert "GHz" in text

    def test_format_lists_cells(self, sodor_report):
        text = sodor_report.format()
        # every path cell line carries a delay in ps
        cell_lines = [l for l in text.splitlines() if l.strip().endswith("ps")
                      and "+" in l]
        assert len(cell_lines) >= sodor_report.critical_paths[0].depth
