"""Dict-of-lists reference graph: the parity oracle for ``CompiledGraph``.

:class:`DictGraph` rebuilds a :class:`~repro.graphir.CompiledGraph` from
its raw node and edge lists, one :class:`Node` per vertex and one
adjacency list per direction, as the circuit graph was stored before it
became arrays.  The functions below compute the per-node statistics, the
per-node fingerprint and the reference DFS walk over it; tests compare
them with the graph's array methods and :meth:`PathSampler.sample`.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.sampler import SampledPath
from repro.graphir import (NODE_TYPES, NUM_STRUCTURAL_FEATURES,
                           NUM_WEIGHTED_FEATURES, SEQUENTIAL_TYPES, Vocabulary,
                           round_width, token_name)

__all__ = ["Node", "DictGraph", "token_counts", "stats_vector",
           "structural_features", "weighted_features", "fingerprint",
           "sample_reference"]


@dataclass(frozen=True)
class Node:
    node_id: int
    node_type: str
    width: int
    label: str = ""

    # Computed once per node, as the dict graph did.
    @cached_property
    def token(self) -> str:
        return token_name(self.node_type, self.width)

    @cached_property
    def rounded_width(self) -> int:
        return round_width(self.width, self.node_type)

    @cached_property
    def is_sequential(self) -> bool:
        return self.node_type in SEQUENTIAL_TYPES


class DictGraph:
    """Nodes in a dict, successors and predecessors in per-node lists."""

    def __init__(self, cg):
        self.name = cg.name
        self._nodes = {i: Node(i, NODE_TYPES[c], w, label)
                       for i, (c, w, label) in enumerate(zip(
                           cg.type_codes.tolist(), cg.widths.tolist(),
                           cg.labels))}
        self._succ = {i: [] for i in self._nodes}
        self._pred = {i: [] for i in self._nodes}
        for src, dst in zip(cg.edge_src.tolist(), cg.edge_dst.tolist()):
            if dst not in self._succ[src]:
                self._succ[src].append(dst)
                self._pred[dst].append(src)

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    def successors(self, node_id: int) -> list[int]:
        return list(self._succ[node_id])

    def predecessors(self, node_id: int) -> list[int]:
        return list(self._pred[node_id])

    def edges(self) -> list[tuple[int, int]]:
        return [(s, d) for s, dsts in self._succ.items() for d in dsts]

    def source_ids(self) -> list[int]:
        return [n.node_id for n in self.nodes()
                if n.is_sequential and self._succ[n.node_id]]


def token_counts(graph: DictGraph) -> Counter:
    return Counter(node.token for node in graph.nodes())


def stats_vector(graph: DictGraph, vocab: Vocabulary | None = None) -> np.ndarray:
    counts = token_counts(graph)
    return np.array([counts.get(token, 0)
                     for token in (vocab or Vocabulary.standard()).tokens],
                    dtype=np.float64)


def weighted_features(graph: DictGraph) -> np.ndarray:
    totals = np.zeros(NUM_WEIGHTED_FEATURES)
    for node in graph.nodes():
        t, w = node.node_type, node.rounded_width
        totals[0] += w
        if t in ("mul", "div", "mod"):
            totals[1] += w * w
        elif t == "dff":
            totals[2] += w
        elif t == "mux":
            totals[3] += w
        elif t == "sh":
            totals[4] += w * np.log2(max(w, 2))
        elif t in ("eq", "lgt"):
            totals[5] += w
        elif t.startswith("reduce_"):
            totals[6] += w
    return totals


def structural_features(graph: DictGraph) -> np.ndarray:
    nodes = graph.nodes()
    if not nodes:
        return np.zeros(NUM_STRUCTURAL_FEATURES)
    widths = [n.rounded_width for n in nodes]
    return np.array([
        len(nodes),
        sum(len(graph.successors(n.node_id)) for n in nodes),
        sum(n.is_sequential for n in nodes),
        max(len(graph.successors(n.node_id)) for n in nodes),
        float(np.mean(widths)),
        float(np.max(widths)),
    ], dtype=np.float64)


def fingerprint(graph: DictGraph) -> str:
    h = hashlib.sha256(b"graph:v2")
    nodes = sorted(graph.nodes(), key=lambda n: n.node_id)
    h.update(np.array([(n.node_id, n.width) for n in nodes], np.int64).tobytes())
    h.update("\x00".join(n.node_type for n in nodes).encode())
    h.update(np.array(sorted(graph.edges()), np.int64).tobytes())
    return h.hexdigest()


def sample_reference(sampler, graph: DictGraph) -> list[SampledPath]:
    """Algorithm 1 as ``sampler`` runs it, with per-visit ``Node`` lookups."""
    rng = np.random.default_rng(sampler.seed)
    paths: list[SampledPath] = []
    seen: set[tuple[int, ...]] = set()
    visited: set[int] = set()

    def pick(successors: list[int]) -> list[int]:
        count = -(-len(successors) // sampler.k)
        if count >= len(successors):
            picked = list(successors)
        else:
            fresh = [s for s in successors if s not in visited]
            stale = [s for s in successors if s in visited]
            rng.shuffle(fresh)
            rng.shuffle(stale)
            picked = (fresh + stale)[:count]
        visited.update(picked)
        return picked

    def dfs_from(src: int) -> None:
        stack = [(succ, (src, succ)) for succ in pick(graph.successors(src))]
        while stack and len(paths) < sampler.max_paths:
            node_id, path = stack.pop()
            if graph.node(node_id).is_sequential:
                if path not in seen:
                    seen.add(path)
                    paths.append(SampledPath(
                        node_ids=path,
                        tokens=tuple(graph.node(n).token for n in path)))
                continue
            successors = graph.successors(node_id)
            if len(path) >= sampler.max_len or not successors:
                continue
            for succ in pick(successors):
                if succ not in path or graph.node(succ).is_sequential:
                    stack.append((succ, path + (succ,)))
            if len(stack) > sampler._MAX_STACK:
                raise RuntimeError(
                    f"path-sampler work stack exceeded {sampler._MAX_STACK} "
                    f"entries on design {graph.name!r}")

    sources = graph.source_ids()
    for _ in range(1 if sampler.k == 1 else 8):
        if len(paths) >= sampler.max_paths:
            break
        before = len(paths)
        rng.shuffle(sources)
        for src in sources:
            if len(paths) >= sampler.max_paths:
                break
            dfs_from(src)
        if len(paths) == before:
            break
    return paths
