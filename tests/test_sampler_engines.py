"""Bit-parity and robustness tests for the path sampler.

The CSR walk must be indistinguishable from the reference DFS over the
dict-of-lists oracle graph (``tests/oracles/graph.py``): same paths, same
order, same RNG consumption — across designs, ``k`` values, and
truncation regimes.  Both walks must survive combinational chains deeper
than the Python recursion limit.
"""

import sys

import numpy as np
import pytest

from repro.core.sampler import PathSampler
from repro.designs import standard_designs
from repro.graphir import CompiledGraph, GraphBuilder
from tests.oracles.graph import DictGraph, sample_reference


def random_graph(rng: np.random.Generator, n: int) -> CompiledGraph:
    """A random DAG-ish circuit: sequential endpoints, random fanout."""
    g = GraphBuilder(f"rand{n}")
    types = ["io", "dff", "add", "mul", "and", "mux", "sh", "eq"]
    for i in range(n):
        t = types[rng.integers(len(types))] if i >= 2 else "io"
        g.add_node(t, int(2 ** rng.integers(0, 7)))
    for i in range(n):
        for _ in range(int(rng.integers(0, 4))):
            j = int(rng.integers(0, n))
            if j != i:
                g.add_edge(min(i, j), max(i, j))
    return g.compile()


def as_tuples(paths):
    return [(p.node_ids, p.tokens) for p in paths]


# The two walks under test, by the ids the robustness tests use.
WALKS = {
    "array": lambda sampler, cg: sampler.sample(cg),
    "reference": lambda sampler, cg: sample_reference(sampler, DictGraph(cg)),
}


class TestEngineParity:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_registry_designs_bit_identical(self, k):
        for entry in standard_designs():
            cg = entry.module.elaborate()
            sampler = PathSampler(k=k)
            ref = sample_reference(sampler, DictGraph(cg))
            assert as_tuples(ref) == as_tuples(sampler.sample(cg)), entry.name

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("max_len", [4, 8, 64])
    def test_random_graphs_bit_identical(self, k, max_len):
        rng = np.random.default_rng(12345 + k)
        for trial in range(8):
            g = random_graph(rng, int(rng.integers(5, 60)))
            sampler = PathSampler(k=k, max_len=max_len)
            ref = sample_reference(sampler, DictGraph(g))
            assert as_tuples(ref) == as_tuples(sampler.sample(g)), f"trial {trial}"


class TestRobustness:
    def deep_chain(self, depth: int) -> CompiledGraph:
        g = GraphBuilder("deep")
        g.add_node("dff", 8)
        for i in range(1, depth):
            g.add_node("add", 8)
            g.add_edge(i - 1, i)
        g.add_node("dff", 8)
        g.add_edge(depth - 1, depth)
        return g.compile()

    @pytest.mark.parametrize("engine", sorted(WALKS))
    def test_deeper_than_recursion_limit(self, engine):
        depth = sys.getrecursionlimit() + 500
        g = self.deep_chain(depth)
        paths = WALKS[engine](PathSampler(k=1, max_len=depth + 2), g)
        assert len(paths) == 1
        assert len(paths[0]) == depth + 1

    @pytest.mark.parametrize("engine", sorted(WALKS))
    def test_work_stack_guard_raises_clearly(self, engine, monkeypatch):
        g = random_graph(np.random.default_rng(7), 40)
        monkeypatch.setattr(PathSampler, "_MAX_STACK", 2)
        with pytest.raises(RuntimeError, match="work stack exceeded"):
            WALKS[engine](PathSampler(k=1), g)
