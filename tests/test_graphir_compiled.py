"""Parity tests for the GraphIR arrays.

The contract under test: a :class:`CompiledGraph` is *exactly* the
dict-of-lists reference graph (``tests/oracles/graph.py``) in array form
— same statistics, same fingerprint, same adjacency (content and order),
same serialized structure — across every registry design.
"""

import json

import numpy as np
import pytest

from repro.designs import standard_designs
from repro.graphir import (CompiledGraph, GraphBuilder, Vocabulary, from_json,
                           to_json)
from repro.runtime.fingerprint import fingerprint_graph
from tests.oracles import graph as oracle

DESIGNS = standard_designs()


@pytest.fixture(scope="module")
def elaborated():
    return [(e.name, e.module.elaborate()) for e in DESIGNS]


class TestCompiledParity:
    def test_stats_match_reference_on_every_registry_design(self, elaborated):
        vocab = Vocabulary.standard()
        for name, cg in elaborated:
            ref = oracle.DictGraph(cg)
            assert cg.token_counts() == oracle.token_counts(ref), name
            np.testing.assert_array_equal(
                cg.stats_vector(vocab), oracle.stats_vector(ref, vocab),
                err_msg=name)
            np.testing.assert_array_equal(
                cg.structural_features(), oracle.structural_features(ref),
                err_msg=name)
            np.testing.assert_array_equal(
                cg.weighted_features(), oracle.weighted_features(ref),
                err_msg=name)

    def test_fingerprint_matches_reference(self, elaborated):
        for name, cg in elaborated:
            assert fingerprint_graph(cg) == oracle.fingerprint(
                oracle.DictGraph(cg)), name

    def test_adjacency_and_roundtrip(self, elaborated):
        for name, cg in elaborated:
            ref = oracle.DictGraph(cg)
            for nid in range(cg.num_nodes):
                assert cg.successors(nid) == ref.successors(nid), name
                assert cg.predecessors(nid) == ref.predecessors(nid), name
            assert cg.edges() == ref.edges(), name
            assert cg.source_ids() == ref.source_ids(), name
            assert cg.token_list == [n.token for n in ref.nodes()], name
            text = to_json(cg)
            assert to_json(from_json(text)) == text, name

    def test_payload_roundtrip(self, elaborated):
        _, cg = elaborated[0]
        clone = CompiledGraph.from_payload(cg.to_payload())
        assert clone.fingerprint() == cg.fingerprint()
        assert clone.name == cg.name
        assert clone.labels == cg.labels


class TestGraphBuilder:
    def test_builder_validates_nodes_and_edges(self):
        b = GraphBuilder("t")
        with pytest.raises(ValueError):
            b.add_node("nonsense", 8)
        with pytest.raises(ValueError):
            b.add_node("add", 0)
        a = b.add_node("io", 8)
        with pytest.raises(KeyError):
            b.add_edge(a, a + 1)

    def test_builder_dedups_edges(self):
        b = GraphBuilder("t")
        a = b.add_node("io", 8)
        c = b.add_node("add", 8)
        b.add_edge(a, c)
        b.add_edge(a, c)
        assert b.compile().num_edges == 1


class TestCompileGuards:
    def test_noncontiguous_ids_rejected(self):
        doc = {"format": "repro-graphir", "version": 1, "name": "gap",
               "nodes": [{"id": 1, "type": "io", "width": 8, "label": ""}],
               "edges": []}
        with pytest.raises(ValueError, match="non-contiguous"):
            from_json(json.dumps(doc))
