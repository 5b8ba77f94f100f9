"""The GraphIR circuit graph (Section 3.1 of the SNS paper).

A :class:`CompiledGraph` is a directed graph whose vertices are
functional units (``io``, ``dff``, ``mux``, ``add``, ``mul``, ...)
annotated with the bit-width of their widest connection, and whose edges
are wires.  Node token names (``mul16``) use the rounded Table 1
vocabulary.  The graph is stored as arrays -- int-coded types, raw and
pre-rounded widths, vocabulary token ids, and CSR successor/predecessor
lists -- so path sampling, the graph statistics fed to the Aggregation
MLP, and fingerprinting run over arrays.

Two ways to obtain one:

- :class:`GraphBuilder` is the only construction target: DSL and
  Verilog elaboration (through :class:`repro.hdl.Circuit`),
  :func:`repro.graphir.from_json`, and single-path graphs all append to
  one and call :meth:`GraphBuilder.compile`;
- :meth:`CompiledGraph.from_payload` rehydrates the JSON-serializable
  form stored in the artifact store's ``graph`` kind.

Each node's successor and predecessor lists keep edge insertion order,
so the sampler consumes the RNG stream in construction order, and the
statistics are exact (every contribution is an integer in float64).
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from .vocab import (ARITH_TYPES, NODE_TYPES, SEQUENTIAL_TYPES, WIDTHS_ARITH,
                    WIDTHS_LOGIC, Vocabulary)

__all__ = ["CompiledGraph", "GraphBuilder", "NUM_STRUCTURAL_FEATURES",
           "NUM_WEIGHTED_FEATURES"]

NUM_STRUCTURAL_FEATURES = 6
NUM_WEIGHTED_FEATURES = 7

# Vertex types whose hardware cost grows quadratically with width
# (array multipliers/dividers), versus linearly (everything else).
_QUADRATIC_TYPES = frozenset({"mul", "div", "mod"})

PAYLOAD_FORMAT = "repro-graphir-compiled"
PAYLOAD_VERSION = 1

# ---------------------------------------------------------------------- #
# Type-code tables (module-level, built once).
# ---------------------------------------------------------------------- #
_TYPE_CODE: dict[str, int] = {t: i for i, t in enumerate(NODE_TYPES)}
_IS_ARITH = np.array([t in ARITH_TYPES for t in NODE_TYPES])
_IS_SEQ = np.array([t in SEQUENTIAL_TYPES for t in NODE_TYPES])
_IS_QUAD = np.array([t in _QUADRATIC_TYPES for t in NODE_TYPES])
_IS_REDUCE = np.array([t.startswith("reduce_") for t in NODE_TYPES])
_IS_CMP = np.array([t in ("eq", "lgt") for t in NODE_TYPES])
_DFF_CODE = _TYPE_CODE["dff"]
_MUX_CODE = _TYPE_CODE["mux"]
_SH_CODE = _TYPE_CODE["sh"]

# Width rounding as one searchsorted per type class.  The bounds are the
# midpoints between consecutive allowed widths; ``side="right"`` makes a
# width landing exactly on a midpoint round *up*, matching
# ``vocab.round_width``'s tie-toward-larger rule, and out-of-range widths
# clamp to the first/last allowed value for free.
_LOGIC_VALUES = np.array(WIDTHS_LOGIC, np.int64)
_ARITH_VALUES = np.array(WIDTHS_ARITH, np.int64)
_LOGIC_BOUNDS = (_LOGIC_VALUES[:-1] + _LOGIC_VALUES[1:]) // 2   # [6, 12, 24, 48]
_ARITH_BOUNDS = (_ARITH_VALUES[:-1] + _ARITH_VALUES[1:]) // 2   # [12, 24, 48]

# Token ids in Vocabulary.standard() order: per-type base offset plus the
# width-bucket index.
_NUM_SPECIAL = Vocabulary.NUM_SPECIAL
_TOKEN_BASE = np.empty(len(NODE_TYPES), np.int64)
_offset = _NUM_SPECIAL
for _i, _t in enumerate(NODE_TYPES):
    _TOKEN_BASE[_i] = _offset
    _offset += len(WIDTHS_ARITH) if _t in ARITH_TYPES else len(WIDTHS_LOGIC)


def _round_widths(type_codes: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Vectorized ``round_width`` over parallel type/width arrays."""
    out = np.empty(len(widths), np.int64)
    arith = _IS_ARITH[type_codes]
    logic = ~arith
    out[logic] = _LOGIC_VALUES[
        np.searchsorted(_LOGIC_BOUNDS, widths[logic], side="right")]
    out[arith] = _ARITH_VALUES[
        np.searchsorted(_ARITH_BOUNDS, widths[arith], side="right")]
    return out


def _width_buckets(type_codes: np.ndarray, widths: np.ndarray) -> np.ndarray:
    buckets = np.empty(len(widths), np.int64)
    arith = _IS_ARITH[type_codes]
    logic = ~arith
    buckets[logic] = np.searchsorted(_LOGIC_BOUNDS, widths[logic], side="right")
    buckets[arith] = np.searchsorted(_ARITH_BOUNDS, widths[arith], side="right")
    return buckets


def _csr(src: np.ndarray, dst: np.ndarray, num_nodes: int
         ) -> tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices); stable sort keeps per-source edge order."""
    indptr = np.zeros(num_nodes + 1, np.int64)
    if len(src):
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        order = np.argsort(src, kind="stable")
        indices = dst[order]
    else:
        indices = np.zeros(0, np.int64)
    return indptr, indices


class CompiledGraph:
    """An immutable circuit graph with O(1) successor/predecessor lookup.

    ``edge_src``/``edge_dst`` keep the edges in insertion order, and the
    stable CSR build keeps that order inside every adjacency list.
    """

    def __init__(self, name: str, type_codes, widths, labels: list[str],
                 edge_src, edge_dst):
        self.name = name
        self.type_codes = np.ascontiguousarray(type_codes, np.int64)
        self.widths = np.ascontiguousarray(widths, np.int64)
        self.labels = labels
        self.edge_src = np.ascontiguousarray(edge_src, np.int64)
        self.edge_dst = np.ascontiguousarray(edge_dst, np.int64)
        n = len(self.type_codes)
        self.succ_indptr, self.succ_indices = _csr(self.edge_src, self.edge_dst, n)
        self.pred_indptr, self.pred_indices = _csr(self.edge_dst, self.edge_src, n)
        self.is_sequential = _IS_SEQ[self.type_codes] if n else np.zeros(0, bool)
        self.rounded_widths = (_round_widths(self.type_codes, self.widths)
                               if n else np.zeros(0, np.int64))
        self.token_ids = ((_TOKEN_BASE[self.type_codes]
                           + _width_buckets(self.type_codes, self.widths))
                          if n else np.zeros(0, np.int64))
        self._derived: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.type_codes)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def successors(self, node_id: int) -> list[int]:
        return self.succ_lists[node_id]

    def predecessors(self, node_id: int) -> list[int]:
        lo, hi = self.pred_indptr[node_id], self.pred_indptr[node_id + 1]
        return self.pred_indices[lo:hi].tolist()

    def edges(self) -> list[tuple[int, int]]:
        """Every edge, source-major (the CSR order)."""
        src = np.repeat(np.arange(self.num_nodes), np.diff(self.succ_indptr))
        return list(zip(src.tolist(), self.succ_indices.tolist()))

    def __repr__(self) -> str:
        return (f"CompiledGraph({self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")

    # ------------------------------------------------------------------ #
    # Derived pure-Python views (built lazily, once): the sampler's
    # inner loop reads plain lists — faster than ndarray indexing for
    # one-element access — while staying exactly the CSR content.
    # ------------------------------------------------------------------ #
    def _lazy(self, key: str, build):
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    @property
    def succ_lists(self) -> list[list[int]]:
        def build():
            idx = self.succ_indices.tolist()
            ptr = self.succ_indptr.tolist()
            return [idx[ptr[i]:ptr[i + 1]] for i in range(self.num_nodes)]
        return self._lazy("succ_lists", build)

    @property
    def is_seq_list(self) -> list[bool]:
        return self._lazy("is_seq_list", self.is_sequential.tolist)

    @property
    def type_names(self) -> list[str]:
        """The vertex type name of every node, in id order."""
        return self._lazy("type_names", lambda: [
            NODE_TYPES[c] for c in self.type_codes.tolist()])

    @property
    def token_list(self) -> list[str]:
        def build():
            tokens = Vocabulary.standard().tokens
            base = _NUM_SPECIAL
            return [tokens[t - base] for t in self.token_ids.tolist()]
        return self._lazy("token_list", build)

    def source_ids(self) -> list[int]:
        """Sequential vertices with outgoing edges, in id order."""
        def build():
            out_deg = np.diff(self.succ_indptr)
            return np.nonzero(self.is_sequential & (out_deg > 0))[0].tolist()
        return self._lazy("source_ids", build)

    def ids_of_type(self, node_type: str) -> list[int]:
        """Node ids of one vertex type, in id order."""
        code = _TYPE_CODE.get(node_type)
        if code is None:
            raise ValueError(f"unknown node type: {node_type!r}")
        return np.nonzero(self.type_codes == code)[0].tolist()

    # ------------------------------------------------------------------ #
    # Graph statistics fed to the Aggregation MLP (Figure 2(c)).
    # ------------------------------------------------------------------ #
    def token_counts(self) -> Counter:
        """Count of each vocabulary token name in the graph."""
        def build():
            counts = np.bincount(self.token_ids - _NUM_SPECIAL,
                                 minlength=Vocabulary.standard().circuit_size) \
                if self.num_nodes else np.zeros(0, np.int64)
            tokens = Vocabulary.standard().tokens
            return Counter({tokens[i]: int(c)
                            for i, c in enumerate(counts) if c})
        return self._lazy("token_counts", build)

    def stats_vector(self, vocab: Vocabulary | None = None) -> np.ndarray:
        """Fixed-length vector of per-token counts, in vocabulary order."""
        standard = Vocabulary.standard()
        if vocab is None or vocab is standard:
            def build():
                counts = np.bincount(self.token_ids - _NUM_SPECIAL,
                                     minlength=standard.circuit_size) \
                    if self.num_nodes else np.zeros(standard.circuit_size, np.int64)
                return counts.astype(np.float64)
            return self._lazy("stats_vector", build)
        counts = self.token_counts()
        return np.array([counts.get(token, 0) for token in vocab.tokens],
                        dtype=np.float64)

    def structural_features(self) -> np.ndarray:
        """Whole-graph structural features:

        [num_nodes, num_edges, num_sequential, max_fanout, mean_width, max_width]
        """
        def build():
            if self.num_nodes == 0:
                return np.zeros(NUM_STRUCTURAL_FEATURES)
            out_deg = np.diff(self.succ_indptr)
            return np.array([
                self.num_nodes,
                self.num_edges,
                int(self.is_sequential.sum()),
                int(out_deg.max(initial=0)),
                float(np.mean(self.rounded_widths)),
                float(np.max(self.rounded_widths)),
            ], dtype=np.float64)
        return self._lazy("structural_features", build)

    def weighted_features(self) -> np.ndarray:
        """Width-weighted aggregate statistics.

        Pure graph statistics (no library access) that correlate strongly
        with physical cost, giving the Aggregation MLP a low-dimensional
        signal alongside the raw 79-token histogram:

        [total bits, quadratic-type bits^2, dff bits, mux bits,
         shifter bits*log2(bits), compare bits, reduce bits]
        """
        def build():
            totals = np.zeros(NUM_WEIGHTED_FEATURES)
            if self.num_nodes == 0:
                return totals
            tc = self.type_codes
            w = self.rounded_widths.astype(np.float64)
            # Every term is an exact integer in float64 (widths are
            # powers of two >= 4, log2 exact), so summation order cannot
            # change the result.
            totals[0] = w.sum()
            quad = w[_IS_QUAD[tc]]
            totals[1] = (quad * quad).sum()
            totals[2] = w[tc == _DFF_CODE].sum()
            totals[3] = w[tc == _MUX_CODE].sum()
            sh = w[tc == _SH_CODE]
            totals[4] = (sh * np.log2(sh)).sum()
            totals[5] = w[_IS_CMP[tc]].sum()
            totals[6] = w[_IS_REDUCE[tc]].sum()
            return totals
        return self._lazy("weighted_features", build)

    # ------------------------------------------------------------------ #
    # Fingerprint: the store's graph key.  Its byte layout (ids and raw
    # widths as int64 pairs, NUL-joined type names, sorted edge pairs)
    # is fixed, so stored entries keep their addresses.
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """SHA-256 over the graph's structure (nodes, widths, edges).

        The design *name* and node labels are excluded: parameter sweeps
        that elaborate to identical hardware share one entry.
        """
        def build():
            h = hashlib.sha256(b"graph:v2")
            n = self.num_nodes
            ids_widths = np.empty((n, 2), np.int64)
            ids_widths[:, 0] = np.arange(n)
            ids_widths[:, 1] = self.widths
            h.update(ids_widths.tobytes())
            h.update("\x00".join(NODE_TYPES[c]
                                 for c in self.type_codes.tolist()).encode())
            if self.num_edges:
                order = np.lexsort((self.edge_dst, self.edge_src))
                edges = np.column_stack((self.edge_src[order],
                                         self.edge_dst[order]))
            else:
                edges = np.array([], np.int64)
            h.update(edges.tobytes())
            return h.hexdigest()
        return self._lazy("fingerprint", build)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on structural corruption (cheap, vectorized)."""
        n = self.num_nodes
        if len(self.widths) != n or len(self.labels) != n:
            raise ValueError("node array lengths disagree")
        if n and (self.widths < 1).any():
            raise ValueError("node width must be positive")
        if n and ((self.type_codes < 0) | (self.type_codes >= len(NODE_TYPES))).any():
            raise ValueError("node type code out of range")
        for arr in (self.edge_src, self.edge_dst):
            if len(arr) and (n == 0 or (arr < 0).any() or (arr >= n).any()):
                raise ValueError("edge endpoints must exist")

    def to_payload(self) -> dict:
        """JSON-serializable form (the FrontendCache disk schema)."""
        return {
            "format": PAYLOAD_FORMAT,
            "version": PAYLOAD_VERSION,
            "name": self.name,
            "types": self.type_codes.tolist(),
            "widths": self.widths.tolist(),
            "labels": list(self.labels),
            "edge_src": self.edge_src.tolist(),
            "edge_dst": self.edge_dst.tolist(),
        }

    @classmethod
    def from_payload(cls, doc: dict) -> "CompiledGraph":
        if doc.get("format") != PAYLOAD_FORMAT:
            raise ValueError(
                f"not a {PAYLOAD_FORMAT} document: format={doc.get('format')!r}")
        if doc.get("version") != PAYLOAD_VERSION:
            raise ValueError(f"unsupported version {doc.get('version')!r}")
        cg = cls(doc.get("name", "design"), doc["types"], doc["widths"],
                 list(doc["labels"]), doc["edge_src"], doc["edge_dst"])
        cg.validate()
        return cg


# ---------------------------------------------------------------------- #
# Construction
# ---------------------------------------------------------------------- #
class GraphBuilder:
    """Append-only construction target for a :class:`CompiledGraph`.

    ``add_node`` raises ``ValueError`` for an unknown type or a width
    below 1; ``add_edge`` raises ``KeyError`` for a dangling endpoint and
    collapses parallel edges.  The journal hooks (``next_node_id``,
    ``edge_mark``, ``edges_since``, ``nodes_since``) let the memoizing
    Verilog elaborator record and replay instances in construction order.
    """

    def __init__(self, name: str = "design"):
        self.name = name
        self._types: list[int] = []
        self._widths: list[int] = []
        self._labels: list[str] = []
        self._esrc: list[int] = []
        self._edst: list[int] = []
        self._eset: set[int] = set()
        self._n = 0

    def add_node(self, node_type: str, width: int, label: str = "") -> int:
        """Create a vertex and return its id."""
        code = _TYPE_CODE.get(node_type)
        if code is None:
            raise ValueError(f"unknown node type: {node_type!r}")
        if width < 1:
            raise ValueError(f"node width must be positive: {width}")
        node_id = self._n
        self._n = node_id + 1
        self._types.append(code)
        self._widths.append(width)
        self._labels.append(label)
        return node_id

    def add_edge(self, src: int, dst: int) -> None:
        """Connect ``src -> dst``; parallel edges are collapsed."""
        n = self._n
        if not (0 <= src < n and 0 <= dst < n):
            raise KeyError(f"edge endpoints must exist: {src} -> {dst}")
        key = (src << 32) | dst
        if key not in self._eset:
            self._eset.add(key)
            self._esrc.append(src)
            self._edst.append(dst)

    # -- journal hooks ------------------------------------------------- #
    @property
    def next_node_id(self) -> int:
        return self._n

    def edge_mark(self) -> int:
        return len(self._esrc)

    def edges_since(self, mark: int) -> list[tuple[int, int]]:
        return list(zip(self._esrc[mark:], self._edst[mark:]))

    def nodes_since(self, start: int) -> list[tuple[str, int, str]]:
        return [(NODE_TYPES[c], w, l)
                for c, w, l in zip(self._types[start:], self._widths[start:],
                                   self._labels[start:])]

    def compile(self) -> CompiledGraph:
        return CompiledGraph(
            self.name,
            np.array(self._types, np.int64),
            np.array(self._widths, np.int64),
            list(self._labels),
            np.array(self._esrc, np.int64),
            np.array(self._edst, np.int64),
        )
