"""Tests for the DianNao case study: config, generator, perf, quantization, DSE."""

import numpy as np
import pytest

from repro.diannao import (
    ALEXNET_CIFAR10,
    DATATYPES,
    DianNao,
    DianNaoConfig,
    DianNaoDSE,
    DianNaoPerfModel,
    QuantizedClassifier,
    datatype_accuracy,
    full_design_space,
    quantize_array,
)
from repro.synth import Synthesizer


class TestConfig:
    def test_576_combinations(self):
        """Table 13: 4*6*2*3*4 = 576 designs."""
        space = full_design_space()
        assert len(space) == 576
        assert len({c.name for c in space}) == 576

    def test_stage_split(self):
        assert DianNaoConfig(pipeline_stages=3).stage_split == (1, 1, 1)
        assert DianNaoConfig(pipeline_stages=8).stage_split == (3, 2, 3)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            DianNaoConfig(tn=5)
        with pytest.raises(ValueError):
            DianNaoConfig(datatype="fp64")

    def test_datatype_table(self):
        assert DATATYPES["bf16"].exponent_bits == 8
        assert DATATYPES["fp16"].exponent_bits == 5
        assert not DATATYPES["int16"].is_float
        assert DATATYPES["tf32"].total_bits == 19

    def test_macs_per_cycle(self):
        assert DianNaoConfig(tn=16).macs_per_cycle == 256


class TestGenerator:
    def test_elaborates_and_synthesizes(self):
        g = DianNao(DianNaoConfig(tn=4)).elaborate()
        g.validate()
        result = Synthesizer(effort="low").synthesize(g)
        assert result.area_um2 > 0

    def test_nfu1_multiplier_count(self):
        cfg = DianNaoConfig(tn=4, datatype="int16")
        counts = DianNao(cfg).elaborate().token_counts()
        mults = counts["mul32"]
        # Tn*Tn NFU-1 multipliers plus one per NFU-3 activation unit.
        assert mults == 4 * 4 + 4

    def test_area_scales_quadratically_with_tn(self):
        synth = Synthesizer(effort="low")
        a8 = synth.synthesize(DianNao(DianNaoConfig(tn=8)).elaborate()).area_um2
        a16 = synth.synthesize(DianNao(DianNaoConfig(tn=16)).elaborate()).area_um2
        assert 2.5 < a16 / a8 < 4.5

    def test_fp_datapath_costs_more_than_int(self):
        synth = Synthesizer(effort="low")
        int16 = synth.synthesize(DianNao(DianNaoConfig(tn=4, datatype="int16")).elaborate())
        fp32 = synth.synthesize(DianNao(DianNaoConfig(tn=4, datatype="fp32")).elaborate())
        assert fp32.area_um2 > int16.area_um2

    def test_deeper_pipeline_has_more_registers_and_shorter_period(self):
        synth = Synthesizer(effort="low")
        g3 = DianNao(DianNaoConfig(tn=4, pipeline_stages=3)).elaborate()
        g8 = DianNao(DianNaoConfig(tn=4, pipeline_stages=8)).elaborate()
        c3, c8 = g3.token_counts(), g8.token_counts()
        assert sum(v for k, v in c8.items() if k.startswith("dff")) > \
            sum(v for k, v in c3.items() if k.startswith("dff"))
        assert synth.synthesize(g8).timing_ps < synth.synthesize(g3).timing_ps

    def test_nfu_stage_labels_present(self):
        g = DianNao(DianNaoConfig(tn=4)).elaborate()
        labels = {g.labels[nid].split("_")[0] for nid in g.ids_of_type("dff")}
        assert {"nfu1", "nfu2", "nfu3", "nbin", "sb"} <= labels


class TestPerfModel:
    def test_bigger_tn_fewer_cycles(self):
        m = DianNaoPerfModel()
        c4 = m.simulate(DianNaoConfig(tn=4)).cycles
        c16 = m.simulate(DianNaoConfig(tn=16)).cycles
        assert c16 < c4

    def test_useful_macs_independent_of_tn(self):
        m = DianNaoPerfModel()
        r4 = m.simulate(DianNaoConfig(tn=4))
        r32 = m.simulate(DianNaoConfig(tn=32))
        assert r4.useful_macs == r32.useful_macs

    def test_utilization_declines_at_tn32(self):
        """FC bandwidth + padding waste erode large-Tn utilization."""
        m = DianNaoPerfModel()
        u16 = m.simulate(DianNaoConfig(tn=16)).utilization
        u32 = m.simulate(DianNaoConfig(tn=32)).utilization
        assert u32 < u16 <= 1.0

    def test_fc_layers_bandwidth_bound(self):
        wide = DianNaoPerfModel(mem_bytes_per_cycle=1e12)
        narrow = DianNaoPerfModel(mem_bytes_per_cycle=8.0)
        cfg = DianNaoConfig(tn=32)
        assert narrow.simulate(cfg).cycles > wide.simulate(cfg).cycles

    def test_activity_coefficients_cover_registers(self):
        cfg = DianNaoConfig(tn=4)
        m = DianNaoPerfModel()
        g = DianNao(cfg).elaborate()
        coeffs = m.activity_coefficients(g, m.simulate(cfg))
        dffs = g.ids_of_type("dff")
        assert len(coeffs) >= 0.9 * len(dffs)
        assert all(0.0 <= v <= 1.0 for v in coeffs.values())

    def test_inferences_per_second(self):
        report = DianNaoPerfModel().simulate(DianNaoConfig(tn=16))
        assert report.inferences_per_second(2.0) == pytest.approx(
            2 * report.inferences_per_second(1.0))


class TestQuantization:
    def test_quantize_int_grid(self):
        dt = DATATYPES["int16"]
        x = np.array([0.1234567])
        q = quantize_array(x, dt)
        step = 2.0 ** -(dt.total_bits // 2 + 1)
        assert q[0] % step == pytest.approx(0.0, abs=1e-12)

    def test_quantize_int_saturates(self):
        q = quantize_array(np.array([1e9, -1e9]), DATATYPES["int8"])
        assert q[0] < 8 and q[1] > -8

    def test_quantize_float_keeps_mantissa_bits(self):
        x = np.array([1.0 + 2.0 ** -20])
        bf16 = quantize_array(x, DATATYPES["bf16"])
        fp32 = quantize_array(x, DATATYPES["fp32"])
        assert bf16[0] == 1.0          # 8-bit significand drops the epsilon
        assert fp32[0] != 1.0          # 24-bit significand keeps it

    def test_quantize_preserves_zero_and_sign(self):
        for name in DATATYPES:
            q = quantize_array(np.array([0.0, -0.5, 0.5]), DATATYPES[name])
            assert q[0] == 0.0
            assert q[1] <= 0.0 <= q[2]

    def test_fp32_nearly_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        np.testing.assert_allclose(quantize_array(x, DATATYPES["fp32"]), x, rtol=1e-6)

    def test_accuracy_saturates_at_int16(self):
        """Figure 11's headline: int8 loses accuracy; int16 == fp32-class."""
        acc = {dt: datatype_accuracy(dt) for dt in DATATYPES}
        assert acc["int8"] < acc["int16"] - 0.02
        for dt in ("fp16", "bf16", "tf32", "fp32"):
            assert abs(acc[dt] - acc["int16"]) < 0.02

    def test_unknown_datatype(self):
        with pytest.raises(KeyError):
            QuantizedClassifier.__new__(QuantizedClassifier)  # no train needed
            datatype_accuracy("int4")


class TestDSE:
    def test_requires_one_engine(self):
        with pytest.raises(ValueError):
            DianNaoDSE()

    def test_small_sweep_shape(self):
        dse = DianNaoDSE(synthesizer=Synthesizer(effort="low"))
        configs = [DianNaoConfig(tn=tn, datatype="int16") for tn in (4, 8, 16)]
        result = dse.run(configs)
        assert len(result.points) == 3
        groups = result.group_by("tn")
        assert set(groups) == {4, 8, 16}
        for p in result.points:
            assert p.area_efficiency > 0
            assert np.isfinite(p.energy_per_inference_uj)

    def test_power_gating_reduces_power(self):
        cfg = DianNaoConfig(tn=8, datatype="int16")
        gated = DianNaoDSE(synthesizer=Synthesizer(effort="low"),
                           use_power_gating=True).run([cfg]).points[0]
        plain = DianNaoDSE(synthesizer=Synthesizer(effort="low"),
                           use_power_gating=False).run([cfg]).points[0]
        assert gated.power_mw < plain.power_mw

    def test_empty_run(self):
        with pytest.raises(ValueError):
            DianNaoDSE(synthesizer=Synthesizer(effort="low")).run([])
