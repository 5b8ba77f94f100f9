"""Tests for the delta-elaboration front end (``DeltaElaborator``).

The sweeps the DSE engine drives must get graphs *identical* to fresh
elaboration — delta-elaboration is a cache strategy, never an
approximation — and unsound ``STRUCTURAL_PARAMS`` declarations must
fail loudly instead of silently serving a neighbor's graph.
"""

import pytest

from repro.hdl import Circuit, Module
from repro.runtime import DeltaElaborator, FrontendCache
from repro.verilog import emit_verilog


class Blinker(Module):
    """Structure depends on ``width`` only; ``label`` is metadata."""

    STRUCTURAL_PARAMS = ("width",)

    def __init__(self, width: int = 8, label: str = "a"):
        super().__init__(width=width, label=label)

    def build(self, c: Circuit) -> None:
        a = c.input("a", self.params["width"])
        b = c.input("b", self.params["width"])
        c.output("y", c.reg(a + b, "acc"))


class BadBlinker(Module):
    """Unsound: claims ``width`` is non-structural, but it isn't."""

    STRUCTURAL_PARAMS = ("label",)

    def __init__(self, width: int = 8, label: str = "a"):
        super().__init__(width=width, label=label)

    def build(self, c: Circuit) -> None:
        a = c.input("a", self.params["width"])
        c.output("y", c.reg(a + a, "acc"))


class TestModuleSweeps:
    def test_graphs_identical_to_fresh_elaboration(self):
        delta = DeltaElaborator()
        for width in (8, 16, 24):
            cached = delta.compile(Blinker(width=width))
            fresh = Blinker(width=width).elaborate()
            assert cached.fingerprint() == fresh.fingerprint()

    def test_repeat_config_hits_graph_tier(self):
        delta = DeltaElaborator()
        delta.compile(Blinker(width=8))
        delta.compile(Blinker(width=8))
        assert delta.stats["compiles"] == 1
        assert delta.stats["graph_hits"] == 1

    def test_non_structural_axis_compiles_once(self):
        delta = DeltaElaborator()
        graphs = [delta.compile(Blinker(width=8, label=lbl))
                  for lbl in ("a", "b", "c")]
        assert delta.stats["compiles"] == 1
        assert delta.stats["projection_hits"] == 2
        # The sound projection verifies exactly once per class.
        assert delta.stats["verified_projections"] == 1
        assert len({g.fingerprint() for g in graphs}) == 1

    def test_structural_axis_still_distinguished(self):
        delta = DeltaElaborator()
        g8 = delta.compile(Blinker(width=8))
        g16 = delta.compile(Blinker(width=16))
        assert g8.fingerprint() != g16.fingerprint()
        assert delta.stats["compiles"] == 2

    def test_unsound_projection_detected(self):
        delta = DeltaElaborator()
        delta.compile(BadBlinker(width=8))
        with pytest.raises(ValueError, match="STRUCTURAL_PARAMS is unsound"):
            delta.compile(BadBlinker(width=16))

    def test_unknown_structural_name_rejected(self):
        class Typo(Blinker):
            STRUCTURAL_PARAMS = ("widht",)

        with pytest.raises(ValueError, match="unknown"):
            DeltaElaborator().compile(Typo(width=8))

    def test_verification_can_be_disabled(self):
        delta = DeltaElaborator(verify_projections=False)
        delta.compile(BadBlinker(width=8))
        # Wrong by construction, but the check is explicitly off.
        g = delta.compile(BadBlinker(width=16))
        assert delta.stats["verified_projections"] == 0
        assert g is not None

    def test_shares_supplied_frontend_cache(self):
        cache = FrontendCache()
        a = DeltaElaborator(cache=cache)
        b = DeltaElaborator(cache=cache)
        a.compile(Blinker(width=8))
        b.compile(Blinker(width=8))
        assert b.stats["compiles"] == 0
        assert b.stats["graph_hits"] == 1


class TestVerilogSweeps:
    def _source(self, width: int) -> str:
        return emit_verilog(Blinker(width=width).elaborate())

    def test_identical_to_fresh_compile(self):
        from repro.runtime import compile_source

        delta = DeltaElaborator()
        src = self._source(12)
        assert delta.compile_source(src).fingerprint() \
            == compile_source(src).fingerprint()

    def test_repeat_source_hits_graph_tier(self):
        delta = DeltaElaborator()
        src = self._source(8)
        delta.compile_source(src)
        delta.compile_source(src)
        assert delta.stats["compiles"] == 1
        assert delta.stats["graph_hits"] == 1

    def test_ast_cached_across_distinct_graph_keys(self):
        delta = DeltaElaborator()
        # An unused define changes the graph cache key but leaves the
        # preprocessed text unchanged, so the source parses only once.
        src = self._source(8)
        delta.compile_source(src)
        delta.compile_source(src, defines={"UNUSED": "1"})
        assert delta.stats["compiles"] == 2
        assert delta.stats["ast_hits"] == 1

    def test_template_hits_across_configs(self):
        """Sibling configurations stamp shared instances from the memo."""
        delta = DeltaElaborator()
        child = """
module add4(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = a + b;
endmodule
"""

        def top(n):
            ports = ",\n  ".join(
                f"input [3:0] a{i}, input [3:0] b{i}, output [3:0] y{i}"
                for i in range(n))
            insts = "\n".join(
                f"  add4 u{i}(.a(a{i}), .b(b{i}), .y(y{i}));"
                for i in range(n))
            return f"module top(\n  {ports}\n);\n{insts}\nendmodule\n{child}"

        g2 = delta.compile_source(top(2), top="top")
        hits_after_first = delta.template_hits
        g3 = delta.compile_source(top(3), top="top")
        # The second config re-stamps add4 from the shared memo.
        assert delta.template_hits > hits_after_first
        assert g2.fingerprint() != g3.fingerprint()

        # And the memo'd graph matches a cold elaboration exactly.
        fresh = DeltaElaborator().compile_source(top(3), top="top")
        assert g3.fingerprint() == fresh.fingerprint()
