"""Tests for the memory-subsystem design generators."""

import pytest

from repro.designs import CacheController, DMAEngine
from repro.synth import Synthesizer


class TestCacheController:
    def test_elaborates_and_synthesizes(self):
        g = CacheController(ways=2, sets=4).elaborate()
        g.validate()
        result = Synthesizer(effort="low").synthesize(g)
        assert result.area_um2 > 0 and result.timing_ps > 0

    def test_area_scales_with_ways(self):
        synth = Synthesizer(effort="low")
        a2 = synth.synthesize(CacheController(ways=2, sets=4).elaborate()).area_um2
        a8 = synth.synthesize(CacheController(ways=8, sets=4).elaborate()).area_um2
        assert a8 > 2.5 * a2

    def test_area_scales_with_sets(self):
        synth = Synthesizer(effort="low")
        a4 = synth.synthesize(CacheController(ways=2, sets=4).elaborate()).area_um2
        a16 = synth.synthesize(CacheController(ways=2, sets=16).elaborate()).area_um2
        assert a16 > 2 * a4

    def test_has_tag_comparators_per_way(self):
        counts = CacheController(ways=4, sets=4, tag_bits=20).elaborate().token_counts()
        # tag compare: one eq per way at the stored-tag width (20 -> eq16)
        assert counts["eq16"] >= 4


class TestDMAEngine:
    def test_elaborates_and_synthesizes(self):
        g = DMAEngine(channels=2).elaborate()
        g.validate()
        result = Synthesizer(effort="low").synthesize(g)
        assert result.power_mw > 0

    def test_channels_scale_hardware(self):
        g2 = DMAEngine(channels=2).elaborate()
        g8 = DMAEngine(channels=8).elaborate()
        assert g8.num_nodes > 2 * g2.num_nodes

    def test_has_per_channel_counters(self):
        counts = DMAEngine(channels=4, addr_bits=32).elaborate().token_counts()
        assert counts["dff32"] >= 4   # per-channel source address registers
        assert counts["dff16"] >= 5   # per-channel length + beat counters

    def test_works_with_generic_dse(self):
        from repro.dse import DesignSpaceExplorer, ParameterGrid

        explorer = DesignSpaceExplorer(DMAEngine, Synthesizer(effort="low"))
        result = explorer.explore(ParameterGrid({"channels": (1, 2, 4)}))
        areas = {p.params["channels"]: p.area_um2 for p in result.points}
        assert areas[1] < areas[2] < areas[4]
