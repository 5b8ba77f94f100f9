"""``repro.graphir`` — the circuit-graph intermediate representation.

Implements Section 3.1 of the SNS paper: typed, width-annotated vertices
connected by directed wire edges, with the 79-token Table 1 vocabulary
(power-of-two width rounding).  One graph type, :class:`CompiledGraph`,
holds a design; :class:`GraphBuilder` builds it, and its methods give the
graph statistics consumed by the Aggregation MLP.
"""

from .vocab import (
    LOGIC_TYPES,
    ARITH_TYPES,
    NODE_TYPES,
    WIDTHS_LOGIC,
    WIDTHS_ARITH,
    SEQUENTIAL_TYPES,
    round_width,
    token_name,
    parse_token,
    Vocabulary,
)
from .compiled import (CompiledGraph, GraphBuilder, NUM_STRUCTURAL_FEATURES,
                       NUM_WEIGHTED_FEATURES)
from .serialize import to_json, from_json, save_graph, load_graph

__all__ = [
    "LOGIC_TYPES", "ARITH_TYPES", "NODE_TYPES", "WIDTHS_LOGIC", "WIDTHS_ARITH",
    "SEQUENTIAL_TYPES", "round_width", "token_name", "parse_token", "Vocabulary",
    "CompiledGraph", "GraphBuilder",
    "NUM_STRUCTURAL_FEATURES", "NUM_WEIGHTED_FEATURES",
    "to_json", "from_json", "save_graph", "load_graph",
]
