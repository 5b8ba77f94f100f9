"""Round-trip tests: GraphIR -> Verilog -> GraphIR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import LookupTable, PiecewiseApprox, SIMDALU, SodorCore
from repro.graphir import GraphBuilder
from repro.synth import Synthesizer
from repro.verilog import elaborate_source, emit_verilog

from tests.test_synth_properties import random_pipeline_graph


def _comparable(counts):
    """Drop io tokens: emission adds a clk port and keeps dead inputs."""
    return {t: n for t, n in counts.items() if not t.startswith("io")}


class TestEmitterBasics:
    def test_emit_contains_module_structure(self):
        g = GraphBuilder("mac8")
        a = g.add_node("io", 8)
        m = g.add_node("mul", 16)
        d = g.add_node("dff", 16)
        g.add_edge(a, m)
        g.add_edge(m, d)
        text = emit_verilog(g.compile())
        assert text.startswith("module mac8(")
        assert "assign" in text and "always @(posedge clk)" in text
        assert text.rstrip().endswith("endmodule")

    def test_name_sanitized(self):
        g = GraphBuilder("8bad-name!")
        g.add_node("io", 8)
        assert emit_verilog(g.compile()).startswith("module m_8bad_name_(")

    def test_unknown_type_rejected(self):
        g = GraphBuilder()
        a = g.add_node("io", 8)
        # forge an invalid node by bypassing validation is not possible;
        # instead check the emitter handles every legal type
        for t in ("add", "mul", "mux", "not", "sh", "eq", "reduce_xor"):
            nid = g.add_node(t, 8)
            g.add_edge(a, nid)
        text = emit_verilog(g.compile())
        assert text.count("assign") >= 7


ROUNDTRIP_DESIGNS = [
    SodorCore(xlen=32),
    SIMDALU(lanes=2, width=16),
    LookupTable(entries=8, width=8),
    PiecewiseApprox(segments=4, width=16),
]


@pytest.mark.parametrize("module", ROUNDTRIP_DESIGNS, ids=lambda m: type(m).__name__)
def test_roundtrip_preserves_tokens_for_real_designs(module):
    original = module.elaborate()
    text = emit_verilog(original)
    rebuilt = elaborate_source(text)
    assert _comparable(original.token_counts()) == _comparable(rebuilt.token_counts())


@pytest.mark.parametrize("module", ROUNDTRIP_DESIGNS[:2], ids=lambda m: type(m).__name__)
def test_roundtrip_preserves_synthesis_cost(module):
    """Emitted Verilog synthesizes to (nearly) the same result."""
    synth = Synthesizer(effort="low")
    original = synth.synthesize(module.elaborate())
    rebuilt = synth.synthesize(elaborate_source(emit_verilog(module.elaborate())))
    assert rebuilt.area_um2 == pytest.approx(original.area_um2, rel=0.05)
    assert rebuilt.timing_ps == pytest.approx(original.timing_ps, rel=0.10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
def test_property_roundtrip_random_graphs(seed, layers, width):
    g = random_pipeline_graph(np.random.default_rng(seed), layers, width)
    rebuilt = elaborate_source(emit_verilog(g))
    assert _comparable(g.token_counts()) == _comparable(rebuilt.token_counts())
