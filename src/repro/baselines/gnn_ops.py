"""Sparse graph operations for the GNN baseline, with autograd support."""

from __future__ import annotations

import numpy as np

from ..graphir import CompiledGraph, Vocabulary
from ..nn.tensor import Tensor

__all__ = ["encode_graph", "segment_mean_neighbors", "global_mean_pool",
           "global_max_pool"]


def encode_graph(graph: CompiledGraph, vocab: Vocabulary):
    """``(token ids, edge sources, edge destinations, node count)`` of a
    graph for message passing; edges are source-major."""
    tokens = np.array([vocab.id_of(t) for t in graph.token_list], np.int64)
    src = np.repeat(np.arange(graph.num_nodes), np.diff(graph.succ_indptr))
    return tokens, src, graph.succ_indices, graph.num_nodes


def segment_mean_neighbors(x: Tensor, edge_src: np.ndarray, edge_dst: np.ndarray,
                           num_nodes: int) -> Tensor:
    """Mean of in-neighbor features per node.

    out[v] = mean over edges (u -> v) of x[u]; nodes with no in-edges get
    zeros.  Differentiable with respect to ``x``.
    """
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    if edge_src.shape != edge_dst.shape:
        raise ValueError("edge_src and edge_dst must have the same shape")

    counts = np.bincount(edge_dst, minlength=num_nodes).astype(np.float64)
    denom = np.maximum(counts, 1.0)

    out_data = np.zeros((num_nodes, x.shape[1]))
    np.add.at(out_data, edge_dst, x.data[edge_src])
    out_data /= denom[:, None]

    out = x._make_child(out_data, (x,), "segment_mean")
    if out.requires_grad:
        def _backward(grad):
            scaled = grad / denom[:, None]
            gx = np.zeros_like(x.data)
            np.add.at(gx, edge_src, scaled[edge_dst])
            x._accumulate(gx)
        out._backward = _backward
    return out


def global_mean_pool(x: Tensor) -> Tensor:
    """Mean over all nodes: (N, D) -> (D,)."""
    return x.mean(axis=0)


def global_max_pool(x: Tensor) -> Tensor:
    """Max over all nodes: (N, D) -> (D,)."""
    return x.max(axis=0)
