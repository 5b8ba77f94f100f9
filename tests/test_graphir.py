"""Tests for the GraphIR vocabulary, graph, and statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphir import (
    ARITH_TYPES,
    LOGIC_TYPES,
    NODE_TYPES,
    CompiledGraph,
    GraphBuilder,
    Vocabulary,
    parse_token,
    round_width,
    token_name,
)


class TestRounding:
    def test_paper_divider_example(self):
        """Widths 12..23 all round to 16 for a divider (Section 3.1)."""
        for w in range(12, 24):
            assert round_width(w, "div") == 16

    def test_tie_rounds_up(self):
        assert round_width(12, "io") == 16  # |12-8| == |12-16|
        assert round_width(6, "io") == 8
        assert round_width(24, "io") == 32

    def test_exact_powers_unchanged(self):
        for w in (4, 8, 16, 32, 64):
            assert round_width(w, "io") == w

    def test_clamp_to_max(self):
        assert round_width(128, "mul") == 64
        assert round_width(1000, "io") == 64

    def test_arith_min_is_8(self):
        assert round_width(1, "add") == 8
        assert round_width(4, "mul") == 8

    def test_logic_min_is_4(self):
        assert round_width(1, "mux") == 4
        assert round_width(3, "dff") == 4

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            round_width(0, "io")

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            round_width(8, "frobnicator")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4096), st.sampled_from(NODE_TYPES))
    def test_property_result_always_in_vocab(self, width, node_type):
        rounded = round_width(width, node_type)
        allowed = (8, 16, 32, 64) if node_type in ARITH_TYPES else (4, 8, 16, 32, 64)
        assert rounded in allowed

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), st.sampled_from(NODE_TYPES))
    def test_property_monotone(self, width, node_type):
        assert round_width(width + 1, node_type) >= round_width(width, node_type)


class TestVocabulary:
    def test_size_is_79_circuit_tokens(self):
        """Table 2: vocabulary set size 79."""
        vocab = Vocabulary.standard()
        assert vocab.circuit_size == 79
        assert len(vocab) == 81  # + pad + cls

    def test_composition(self):
        vocab = Vocabulary.standard()
        logic = [t for t in vocab.tokens if parse_token(t)[0] in LOGIC_TYPES]
        arith = [t for t in vocab.tokens if parse_token(t)[0] in ARITH_TYPES]
        assert len(logic) == 11 * 5
        assert len(arith) == 6 * 4

    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary.standard()
        tokens = ["io8", "mul16", "add16", "dff16"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_special_token_ids(self):
        vocab = Vocabulary.standard()
        assert vocab.PAD == 0
        assert vocab.CLS == 1
        assert vocab.token_of(0) == "<pad>"
        assert vocab.token_of(1) == "<cls>"

    def test_unknown_token_raises(self):
        vocab = Vocabulary.standard()
        with pytest.raises(KeyError):
            vocab.id_of("mul7")

    def test_all_ids_distinct(self):
        vocab = Vocabulary.standard()
        ids = [vocab.id_of(t) for t in vocab.tokens]
        assert len(set(ids)) == 79
        assert min(ids) == 2

    def test_parse_token_handles_underscore_types(self):
        assert parse_token("reduce_and8") == ("reduce_and", 8)
        assert parse_token("reduce_xor64") == ("reduce_xor", 64)

    def test_parse_token_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_token("banana42")

    def test_encode_array_matches_encode(self):
        vocab = Vocabulary.standard()
        tokens = list(vocab.tokens) + ["io8", "mul16", "dff4", "reduce_xor64"]
        np.testing.assert_array_equal(vocab.encode_array(tokens),
                                      np.asarray(vocab.encode(tokens)))

    def test_encode_array_empty(self):
        vocab = Vocabulary.standard()
        out = vocab.encode_array([])
        assert out.shape == (0,) and out.dtype == np.int64

    def test_encode_array_unknown_token_raises(self):
        vocab = Vocabulary.standard()
        with pytest.raises(KeyError, match="zzz9"):
            vocab.encode_array(["io8", "zzz9", "mul16"])
        with pytest.raises(KeyError, match="mul7"):
            vocab.encode(["mul7"])


def make_mac_graph() -> CompiledGraph:
    """The Figure 2 example: 8-bit multiply-add with output register."""
    g = GraphBuilder("mac8")
    a = g.add_node("io", 8, "a")
    b = g.add_node("io", 8, "b")
    mul = g.add_node("mul", 16, "mul")
    add = g.add_node("add", 16, "add")
    dff = g.add_node("dff", 16, "reg")
    out = g.add_node("io", 16, "out")
    g.add_edge(a, mul)
    g.add_edge(b, mul)
    g.add_edge(mul, add)
    g.add_edge(add, dff)
    g.add_edge(dff, out)
    return g.compile()


class TestCircuitGraph:
    def test_figure2_tokens(self):
        g = make_mac_graph()
        assert sorted(g.token_list) == sorted(
            ["io8", "io8", "mul16", "add16", "dff16", "io16"])

    def test_counts(self):
        g = make_mac_graph()
        assert g.num_nodes == 6
        assert g.num_edges == 5

    def test_adjacency(self):
        g = make_mac_graph()
        [mul_id] = g.ids_of_type("mul")
        [add_id] = g.ids_of_type("add")
        assert g.successors(mul_id) == [add_id]
        assert mul_id in g.predecessors(add_id)

    def test_edges_are_source_major(self):
        b = GraphBuilder()
        for _ in range(3):
            b.add_node("io", 8)
        b.add_edge(2, 0)
        b.add_edge(0, 2)
        b.add_edge(1, 0)
        b.add_edge(0, 1)
        assert b.compile().edges() == [(0, 2), (0, 1), (1, 0), (2, 0)]

    def test_type_names(self):
        assert make_mac_graph().type_names == ["io", "io", "mul", "add",
                                               "dff", "io"]

    def test_parallel_edges_collapse(self):
        g = GraphBuilder()
        a = g.add_node("io", 8)
        b = g.add_node("dff", 8)
        g.add_edge(a, b)
        g.add_edge(a, b)
        assert g.compile().num_edges == 1

    def test_edge_to_missing_node_raises(self):
        g = GraphBuilder()
        a = g.add_node("io", 8)
        with pytest.raises(KeyError):
            g.add_edge(a, 99)

    def test_sequential_ids(self):
        g = make_mac_graph()
        seq = np.flatnonzero(g.is_sequential).tolist()
        assert {g.type_names[i] for i in seq} == {"io", "dff"}
        assert len(seq) == 4

    def test_source_ids_excludes_sinks(self):
        g = make_mac_graph()
        sources = g.source_ids()
        # the final io16 output has no successors -> not a source
        out_id = g.token_list.index("io16")
        assert out_id not in sources

    def test_invalid_node_type(self):
        g = GraphBuilder()
        with pytest.raises(ValueError):
            g.add_node("nand", 8)

    def test_validate_passes_on_clean_graph(self):
        make_mac_graph().validate()


class TestStats:
    def test_token_counts_match_figure2(self):
        counts = make_mac_graph().token_counts()
        assert counts["io8"] == 2
        assert counts["mul16"] == 1
        assert counts["add16"] == 1
        assert counts["dff16"] == 1
        assert counts["io16"] == 1

    def test_stats_vector_length_and_sum(self):
        g = make_mac_graph()
        vec = g.stats_vector()
        assert vec.shape == (79,)
        assert vec.sum() == g.num_nodes

    def test_structural_features(self):
        feats = make_mac_graph().structural_features()
        assert feats[0] == 6  # nodes
        assert feats[1] == 5  # edges
        assert feats[2] == 4  # sequential
        assert feats[3] == 1  # max fanout
        assert feats[5] == 16  # max width

    def test_empty_graph_features_are_zero(self):
        feats = GraphBuilder().compile().structural_features()
        np.testing.assert_array_equal(feats, np.zeros(6))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 30))
    def test_property_stats_sum_equals_nodes(self, n):
        g = GraphBuilder()
        rng = np.random.default_rng(n)
        for _ in range(n):
            t = NODE_TYPES[rng.integers(len(NODE_TYPES))]
            g.add_node(t, int(rng.integers(1, 65)))
        assert g.compile().stats_vector().sum() == n
