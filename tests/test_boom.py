"""Tests for the BOOM case study: config space, generator, perf model, DSE."""

import numpy as np
import pytest

from repro.boom import (
    TABLE10,
    BoomConfig,
    BoomCore,
    BoomDSE,
    CoreMarkModel,
    full_design_space,
)
from repro.dse import pareto_points
from repro.synth import Synthesizer


class TestConfigSpace:
    def test_2592_combinations(self):
        """Table 10: 3*4*2*2*3*3*3*2 = 2592 designs."""
        space = full_design_space()
        assert len(space) == 2592
        assert len({c.name for c in space}) == 2592

    def test_table10_counts(self):
        expected = {"branch_predictor": 3, "core_width": 4, "memory_ports": 2,
                    "fetch_width": 2, "rob_size": 3, "int_regs": 3,
                    "issue_slots": 3, "dcache_ways": 2}
        assert {k: len(v) for k, v in TABLE10.items()} == expected

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            BoomConfig(core_width=5)
        with pytest.raises(ValueError):
            BoomConfig(branch_predictor="oracle")


class TestGenerator:
    def test_elaborates_and_synthesizes(self):
        g = BoomCore(BoomConfig()).elaborate()
        g.validate()
        result = Synthesizer(effort="low").synthesize(g)
        assert result.area_um2 > 0 and result.timing_ps > 0

    def test_bigger_config_bigger_core(self):
        small = BoomCore(BoomConfig(core_width=1, rob_size=32, int_regs=52,
                                    issue_slots=8, fetch_width=4,
                                    branch_predictor="boom2")).elaborate()
        big = BoomCore(BoomConfig(core_width=4, rob_size=96, int_regs=100,
                                  issue_slots=32, fetch_width=8,
                                  branch_predictor="tage-l")).elaborate()
        assert big.num_nodes > 2 * small.num_nodes

    @pytest.mark.parametrize("param,lo,hi", [
        ("rob_size", 32, 96),
        ("issue_slots", 8, 32),
        ("int_regs", 52, 100),
        ("dcache_ways", 4, 8),
        ("memory_ports", 1, 2),
    ])
    def test_each_parameter_changes_hardware(self, param, lo, hi):
        ga = BoomCore(BoomConfig(**{param: lo})).elaborate()
        gb = BoomCore(BoomConfig(**{param: hi})).elaborate()
        assert gb.num_nodes > ga.num_nodes

    def test_predictors_differ_in_cost(self):
        sizes = {}
        for bp in ("boom2", "alpha21264", "tage-l"):
            sizes[bp] = BoomCore(BoomConfig(branch_predictor=bp)).elaborate().num_nodes
        assert sizes["boom2"] < sizes["alpha21264"] < sizes["tage-l"]


class TestPerfModel:
    def test_wider_core_faster(self):
        m = CoreMarkModel()
        narrow = m.ipc(BoomConfig(core_width=1))
        wide = m.ipc(BoomConfig(core_width=4, issue_slots=32, rob_size=96,
                                int_regs=100, fetch_width=8))
        assert wide > narrow

    def test_issue_slots_saturate_at_decode_width(self):
        """Paper observation 1: 32 slots gain nothing over 16 on a 4-wide core."""
        m = CoreMarkModel()
        base = dict(core_width=4, fetch_width=8, rob_size=96, int_regs=100)
        ipc16 = m.ipc(BoomConfig(issue_slots=16, **base))
        ipc32 = m.ipc(BoomConfig(issue_slots=32, **base))
        assert ipc32 == pytest.approx(ipc16)

    def test_memory_ports_do_not_bind_on_coremark(self):
        """Paper observation 3: CoreMark is not memory-throughput bound."""
        m = CoreMarkModel()
        one = m.ipc(BoomConfig(memory_ports=1))
        two = m.ipc(BoomConfig(memory_ports=2))
        assert two == pytest.approx(one)

    def test_better_predictor_helps(self):
        m = CoreMarkModel()
        assert m.ipc(BoomConfig(branch_predictor="tage-l")) > \
            m.ipc(BoomConfig(branch_predictor="boom2"))

    def test_diminishing_returns_from_resources(self):
        """Paper observation 2: small cores are only marginally slower."""
        m = CoreMarkModel()
        modest = m.ipc(BoomConfig(core_width=4, fetch_width=8, rob_size=32,
                                  int_regs=52, issue_slots=8))
        maxed = m.ipc(BoomConfig(core_width=4, fetch_width=8, rob_size=96,
                                 int_regs=100, issue_slots=32))
        assert modest > 0.4 * maxed  # far closer than the resource ratio

    def test_score_scales_with_frequency(self):
        m = CoreMarkModel()
        cfg = BoomConfig()
        assert m.score(cfg, 2.0) == pytest.approx(2 * m.score(cfg, 1.0))

    def test_score_invalid_frequency(self):
        with pytest.raises(ValueError):
            CoreMarkModel().score(BoomConfig(), 0.0)

    def test_bottleneck_names_limit(self):
        m = CoreMarkModel()
        assert m.bottleneck(BoomConfig(core_width=1, issue_slots=32,
                                       rob_size=96, int_regs=100)) == "decode"
        assert m.bottleneck(BoomConfig(core_width=4, fetch_width=8,
                                       issue_slots=8, rob_size=96,
                                       int_regs=100)) == "issue"


class TestDSE:
    def test_pareto_front_dominance(self):
        from repro.boom.dse import DSEPoint
        cfg = BoomConfig()
        pts = [DSEPoint(cfg, 1, area, 1.0, score) for area, score in
               [(10, 0.5), (20, 0.9), (15, 0.4), (30, 1.0), (25, 0.95)]]
        front = pareto_points(pts, cost="area_um2")
        areas = [p.area_um2 for p in front]
        assert areas == sorted(areas)
        for a, b in zip(front, front[1:]):
            assert b.score > a.score

    def test_sns_backed_dse(self, tiny_dse_sns):
        """A small sweep: normalized scores, member picks, subset fronts."""
        configs = [
            BoomConfig(core_width=1, issue_slots=8, rob_size=32, int_regs=52,
                       branch_predictor="boom2"),
            BoomConfig(core_width=2, issue_slots=16, rob_size=64, int_regs=80),
            BoomConfig(core_width=4, issue_slots=32, rob_size=96, int_regs=100,
                       fetch_width=8),
        ]
        result = BoomDSE(predictor=tiny_dse_sns).run(configs)
        assert [p.config for p in result.points] == configs
        assert result.high_perf.score == pytest.approx(1.0)
        assert max(p.score for p in result.points) == result.high_perf.score
        assert result.runtime_s > 0
        for pick in (result.high_perf, result.power_eff, result.area_eff):
            assert pick in result.points
        # Pareto fronts are subsets of the evaluated points.
        assert set(result.pareto_power) <= set(result.points)
        assert set(result.pareto_area) <= set(result.points)

    def test_empty_configs(self, tiny_dse_sns):
        with pytest.raises(ValueError):
            BoomDSE(predictor=tiny_dse_sns).run([])
