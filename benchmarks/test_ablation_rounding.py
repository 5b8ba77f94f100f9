"""Ablation — width rounding (Section 3.1).

The paper: rounding widths to powers of two cuts the vocabulary "from
around 1000 to 79" and lets rare widths share training signal.  This
bench measures the actual vocabulary explosion on our design dataset.
"""

from collections import Counter

from repro.designs import standard_designs
from repro.experiments import format_table

from conftest import run_once


def test_ablation_width_rounding(benchmark):
    def measure():
        rounded = Counter()
        unrounded = Counter()
        for entry in standard_designs():
            graph = entry.module.elaborate()
            rounded.update(graph.token_list)
            unrounded.update(zip(graph.type_names, graph.widths.tolist()))
        return rounded, unrounded

    rounded, unrounded = run_once(benchmark, measure)

    singleton_unrounded = sum(1 for c in unrounded.values() if c == 1)
    singleton_rounded = sum(1 for c in rounded.values() if c == 1)
    print("\n" + format_table(
        ["metric", "rounded (SNS)", "unrounded"],
        [["distinct vocabulary entries", len(rounded), len(unrounded)],
         ["entries seen only once", singleton_rounded, singleton_unrounded]],
        title="Ablation: width rounding"))
    print("paper: rounding reduces ~1000 vocabularies to 79")

    # Rounding compresses the observed vocabulary substantially and
    # stays inside the fixed 79-token set.
    assert len(rounded) <= 79
    assert len(unrounded) > 1.5 * len(rounded)
    # Rare-width starvation: rounding removes singleton classes that
    # would otherwise never train ("a 17-bit divider seen once").
    assert singleton_rounded <= singleton_unrounded
