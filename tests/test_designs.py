"""Tests for the hardware design dataset (Table 3)."""

import pytest

from repro.designs import (
    AESRound,
    ArianeCore,
    Convolution2D,
    FFTPipeline,
    FPUnit,
    GEMMUnit,
    GPIOController,
    GemminiSystolicArray,
    HwachaVectorUnit,
    IceNetNIC,
    LookupTable,
    MergeSortNetwork,
    NVDLAConvCore,
    PiecewiseApprox,
    RadixSortUnit,
    RocketCore,
    SIMDALU,
    SPMVUnit,
    Sha3Round,
    SodorCore,
    Stencil2DAccelerator,
    ViterbiDecoder,
    design_families,
    get_design,
    standard_designs,
)
from repro.synth import Synthesizer

ALL_GENERATORS = [
    SodorCore(), RocketCore(), ArianeCore(),
    IceNetNIC(), GPIOController(),
    GemminiSystolicArray(dim=4), NVDLAConvCore(atoms=8),
    SIMDALU(lanes=2), HwachaVectorUnit(lanes=1),
    FFTPipeline(points=8), Convolution2D(),
    AESRound(), Sha3Round(),
    GEMMUnit(rows=2, cols=2), SPMVUnit(lanes=2),
    MergeSortNetwork(n=4), RadixSortUnit(buckets=4),
    LookupTable(entries=16), PiecewiseApprox(segments=4),
    FPUnit(), Stencil2DAccelerator(cores=1, unroll=1), ViterbiDecoder(states=4),
]


def _gate_count(lib, g) -> float:
    return sum(lib.gate_count(t, w)
               for t, w in zip(g.type_names, g.widths.tolist()))


@pytest.mark.parametrize("module", ALL_GENERATORS, ids=lambda m: type(m).__name__)
def test_every_generator_elaborates_validly(module):
    g = module.elaborate()
    g.validate()
    assert g.num_nodes > 0
    assert g.num_edges > 0
    assert g.is_sequential.any()


@pytest.mark.parametrize("module", ALL_GENERATORS, ids=lambda m: type(m).__name__)
def test_every_generator_synthesizes(module):
    result = Synthesizer(effort="low").synthesize(module.elaborate())
    assert result.timing_ps > 0
    assert result.area_um2 > 0
    assert result.power_mw > 0


class TestRegistry:
    def test_exactly_41_designs(self):
        assert len(standard_designs()) == 41

    def test_names_unique(self):
        names = [e.name for e in standard_designs()]
        assert len(set(names)) == 41

    def test_all_table3_categories_present(self):
        categories = {e.category for e in standard_designs()}
        assert categories == {
            "Processor Core", "Peripheral Component", "Machine Learning Acc.",
            "Vector Arithmetic", "Signal Processing", "Cryptographic Arithmetic",
            "Linear Algebra", "Sort", "Non-linear Function Approximation", "Other",
        }

    def test_families_group_parameter_sweeps(self):
        families = design_families()
        assert len(families["rocket"]) == 3
        assert len(families["gemmini"]) == 3
        for entries in families.values():
            assert len({e.name for e in entries}) == len(entries)

    def test_get_design(self):
        entry = get_design("lut128x8")
        assert entry.category == "Non-linear Function Approximation"
        with pytest.raises(KeyError):
            get_design("nonexistent")

    def test_size_spread_spans_orders_of_magnitude(self):
        """Figure 7: designs range from a tiny LUT to a multi-M-gate stencil."""
        lib = Synthesizer().library
        small = get_design("gpio16").module.elaborate()
        big = get_design("stencil16").module.elaborate()
        small_gates = _gate_count(lib, small)
        big_gates = _gate_count(lib, big)
        assert big_gates > 1000 * small_gates
        assert big_gates > 5e6  # multi-million-gate flagship


class TestParameterSensitivity:
    """Bigger parameters must produce bigger hardware (DSE prerequisite)."""

    def _gates(self, module):
        lib = Synthesizer().library
        return _gate_count(lib, module.elaborate())

    def test_gemmini_scales_quadratically_with_dim(self):
        g8 = self._gates(GemminiSystolicArray(dim=8))
        g16 = self._gates(GemminiSystolicArray(dim=16))
        assert 3.0 < g16 / g8 < 5.0

    def test_simd_scales_with_lanes(self):
        assert self._gates(SIMDALU(lanes=8)) > 1.8 * self._gates(SIMDALU(lanes=4))

    def test_lut_scales_with_entries(self):
        assert self._gates(LookupTable(entries=128)) > 3 * self._gates(LookupTable(entries=32))

    def test_fft_scales_with_points(self):
        assert self._gates(FFTPipeline(points=32)) > 2 * self._gates(FFTPipeline(points=16))

    def test_wider_rocket_is_bigger(self):
        assert self._gates(RocketCore(xlen=64)) > self._gates(RocketCore(xlen=32))

    def test_fp32_costs_more_than_bf16(self):
        fp32 = self._gates(FPUnit(exp_w=8, man_w=24))
        bf16 = self._gates(FPUnit(exp_w=8, man_w=8))
        assert fp32 > 2 * bf16


class TestDesignStructure:
    def test_aes_rounds_stack(self):
        g1 = AESRound(rounds=1).elaborate()
        g2 = AESRound(rounds=2).elaborate()
        assert 1.8 < g2.num_nodes / g1.num_nodes < 2.3

    def test_sha3_has_64bit_state_registers(self):
        counts = Sha3Round().elaborate().token_counts()
        assert counts["dff64"] == 25  # 5x5 lanes

    def test_mergesort_has_compare_exchange_pairs(self):
        counts = MergeSortNetwork(n=8, width=16).elaborate().token_counts()
        assert counts["lgt16"] > 0
        assert counts["mux16"] >= 2 * counts["lgt16"]  # two muxes per exchange

    def test_gemm_accumulators_match_tile(self):
        counts = GEMMUnit(rows=3, cols=5, depth=4, width=16).elaborate().token_counts()
        assert counts["mul64"] + counts["mul32"] == 3 * 5 * 4

    def test_viterbi_has_acs_structure(self):
        counts = ViterbiDecoder(states=8).elaborate().token_counts()
        assert counts["dff16"] >= 8  # path metrics
        assert counts["lgt16"] >= 8  # compare-selects
