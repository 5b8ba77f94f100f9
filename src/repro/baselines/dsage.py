"""A D-SAGE-style GraphSAGE baseline (Ustun et al., ICCAD 2020).

D-SAGE is the paper's state-of-the-art comparison point: a customized
GraphSage model predicting timing.  This implementation follows the
GraphSAGE-mean recipe — each layer concatenates a node's state with the
mean of its neighbors' states and applies a linear+ReLU — stacked K deep,
with a global max-pool readout regressing the design's critical-path
timing (max-pool mirrors timing's max-reduction semantics).

Section 2 of the SNS paper explains why this architecture struggles on
deep circuit paths: a K-layer GNN only sees K hops, while circuit paths
run hundreds of nodes deep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..graphir import CompiledGraph, Vocabulary
from .gnn_ops import encode_graph, global_max_pool, segment_mean_neighbors

__all__ = ["DSAGEConfig", "DSAGETimingModel"]


@dataclass(frozen=True)
class DSAGEConfig:
    hidden_size: int = 32
    num_layers: int = 3
    epochs: int = 60
    lr: float = 0.005
    seed: int = 0
    max_nodes: int = 5000  # full-graph message passing budget per design


class DSAGETimingModel:
    """GraphSAGE regression of design-level timing."""

    def __init__(self, config: DSAGEConfig | None = None, vocab: Vocabulary | None = None):
        self.config = config or DSAGEConfig()
        self.vocab = vocab or Vocabulary.standard()
        rng = np.random.default_rng(self.config.seed)
        h = self.config.hidden_size
        self.embed = nn.Embedding(len(self.vocab), h, rng=rng)
        self.layers = [nn.Linear(2 * h, h, rng=rng) for _ in range(self.config.num_layers)]
        self.head = nn.Linear(h, 1, rng=rng)
        self._scale_mean = 0.0
        self._scale_std = 1.0
        self._fitted = False

    # ------------------------------------------------------------------ #
    def _forward_graph(self, tokens, src, dst, n) -> nn.Tensor:
        x = self.embed(tokens)
        for layer in self.layers:
            neigh = segment_mean_neighbors(x, src, dst, n)
            combined = nn.concatenate([x, neigh], axis=1)
            x = layer(combined).relu()
        pooled = global_max_pool(x)
        return self.head(pooled.reshape(1, -1)).reshape(1)

    # ------------------------------------------------------------------ #
    def fit(self, graphs: list[CompiledGraph], timings_ps: np.ndarray,
            verbose: bool = False) -> "DSAGETimingModel":
        if len(graphs) < 2:
            raise ValueError("need at least 2 training graphs")
        cfg = self.config
        usable = [(g, t) for g, t in zip(graphs, timings_ps)
                  if g.num_nodes <= cfg.max_nodes]
        if len(usable) < 2:
            raise ValueError("too few graphs under the max_nodes budget")
        encoded = [encode_graph(g, self.vocab) for g, _ in usable]
        targets = np.log1p(np.array([t for _, t in usable]))
        self._scale_mean = float(targets.mean())
        self._scale_std = float(targets.std()) or 1.0
        norm_targets = (targets - self._scale_mean) / self._scale_std

        params = self.embed.parameters() + self.head.parameters()
        for layer in self.layers:
            params.extend(layer.parameters())
        opt = nn.Adam(params, lr=cfg.lr)
        rng = np.random.default_rng(cfg.seed)
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(encoded))
            losses = []
            for i in order:
                tokens, src, dst, n = encoded[i]
                pred = self._forward_graph(tokens, src, dst, n)
                loss = nn.mse_loss(pred, np.array([norm_targets[i]]))
                opt.zero_grad()
                loss.backward()
                nn.clip_grad_norm(params, 5.0)
                opt.step()
                losses.append(loss.item())
            if verbose and epoch % 10 == 0:
                print(f"[d-sage] epoch {epoch:3d} loss {np.mean(losses):.4f}")
        self._fitted = True
        return self

    def predict(self, graphs: list[CompiledGraph]) -> np.ndarray:
        """Predicted timing (ps) per design."""
        if not self._fitted:
            raise RuntimeError("fit() must be called before predict()")
        out = []
        with nn.no_grad():
            for g in graphs:
                tokens, src, dst, n = encode_graph(g, self.vocab)
                norm = self._forward_graph(tokens, src, dst, n).numpy()[0]
                out.append(np.expm1(norm * self._scale_std + self._scale_mean))
        return np.array(out).clip(min=0.0)
